(* flow: whole-network route-provenance checks (Flow + Lint_flow), and
   on request the provenance fixpoint of one destination class. *)

type params = {
  network : string;
  ec : string option;  (** the class whose facts [facts] dumps *)
  facts : bool;
}

(* One router's facts: (router, role, bgp, ospf); [None] planes are
   unreachable. *)
type fact_row = int * int option * string option * string option

type result = {
  spec : string;
  names : int -> string;
  diags : Diag.t list;
  degraded : bool;  (** the dataflow budget ran out *)
  facts : (Ecs.ec * fact_row list) option;
}

let run ~budget ?locs net (p : params) =
  Op.catch @@ fun () ->
  let diags = List.sort Diag.compare (Lint_flow.run ?locs ~budget net) in
  let names = Graph.name net.Device.graph in
  let facts =
    if not p.facts then None
    else
      let ec = Op.find_ec net p.ec in
      let t = Flow.analyze ~budget net ec in
      let roles = Result.to_option (Bonsai_api.role_partition net ec) in
      let plane r p =
        Option.map (Format.asprintf "%a" (Flow.pp_fact ~names)) (Flow.fact t r p)
      in
      Some
        ( ec,
          List.init (Graph.n_nodes net.Device.graph) (fun r ->
              ( r,
                Option.map (fun g -> g.(r)) roles,
                plane r Flow.Bgp,
                plane r Flow.Ospf )) )
  in
  {
    spec = p.network;
    names;
    diags;
    degraded =
      List.exists (fun d -> String.equal d.Diag.check "flow-degraded") diags;
    facts;
  }

(* at least one finding at warning or above *)
let findings t =
  List.exists
    (fun d -> Diag.severity_rank d.Diag.severity >= Diag.severity_rank Diag.Warning)
    t.diags

let to_json t =
  let opt f = function Some v -> f v | None -> Json.Null in
  let fact_json (r, role, bgp, ospf) =
    Json.Obj
      [
        ("router", Op.str (t.names r));
        ("role", opt (fun g -> Json.Int g) role);
        ("bgp", opt Op.str bgp);
        ("ospf", opt Op.str ospf);
      ]
  in
  Json.Obj
    ([
       ("network", Op.str t.spec);
       ("findings", Op.list Op.diag_json t.diags);
       ("count", Json.Int (List.length t.diags));
       ("degraded", Json.Bool t.degraded);
     ]
    @
    match t.facts with
    | None -> []
    | Some (_, rows) -> [ ("facts", Op.list fact_json rows) ])

let pp ppf t =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diag.pp d) t.diags;
  let n = List.length t.diags in
  Format.fprintf ppf "%d finding%s@." n (Op.plural n);
  match t.facts with
  | None -> ()
  | Some (ec, rows) ->
    Format.fprintf ppf "facts for %a:@." Prefix.pp ec.Ecs.ec_prefix;
    List.iter
      (fun (r, role, bgp, ospf) ->
        Format.fprintf ppf "  %s%s:@." (t.names r)
          (match role with Some g -> Printf.sprintf " (role %d)" g | None -> "");
        let show plane = function
          | None -> Format.fprintf ppf "    %s: unreachable@." plane
          | Some s -> Format.fprintf ppf "    %s: %s@." plane s
        in
        show "bgp" bgp;
        show "ospf" ospf)
      rows
