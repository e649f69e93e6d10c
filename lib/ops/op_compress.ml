(* compress: one destination class, or every class of the network.

   Serve asks for every class unless it names one ("ec"); the CLI asks
   for the first class unless it names one or passes --all. With a warm
   summary (serve's registry, or the CLI's --modules composition) the
   rows come from it; without one, only the classes asked for are
   compressed. *)

type params = {
  network : string;
  ec : string option;
  all : bool;  (** every class; [ec] is then ignored *)
  check : bool;  (** re-validate the Figure 4 conditions per class *)
  dot : string option;  (** single class: write the abstract topology *)
}

type row = {
  res : Bonsai_api.ec_result;
  violations : Check.violation list option;
      (** [--check] verdict of the class's own abstraction (before any
          check fallback); [None] when unchecked or degraded *)
}

type result = {
  spec : string;
  net : Device.network;
  whole : Bonsai_api.summary option;  (** [Some] iff every class was asked *)
  rows : row list;
  skipped_anycast : int;
  degradation : Bonsai_api.degradation option;
  check_fallback : bool;
      (** single class: it failed [--check] and fell back to identity *)
  dot : string option;
}

let violations net (r : Bonsai_api.ec_result) =
  let _, signature =
    Compile.edge_signatures
      ~universe:r.Bonsai_api.abstraction.Abstraction.universe net
      ~dest:r.Bonsai_api.ec.Ecs.ec_prefix
  in
  Check.check r.Bonsai_api.abstraction ~signature

let run ~budget ?warm net (p : params) =
  Op.catch @@ fun () ->
  let check r =
    if p.check && not r.Bonsai_api.degraded then Some (violations net r)
    else None
  in
  let make ?whole ?(check_fallback = false) ~skipped_anycast ~degradation rows =
    { spec = p.network; net; whole; rows; skipped_anycast; degradation;
      check_fallback; dot = p.dot }
  in
  if p.all then
    let s =
      match warm with Some s -> s | None -> Bonsai_api.compress_exn ~budget net
    in
    make ~whole:s ~skipped_anycast:s.Bonsai_api.skipped_anycast
      ~degradation:s.Bonsai_api.degradation
      (List.map
         (fun r -> { res = r; violations = check r })
         s.Bonsai_api.results)
  else
    let r, skipped_anycast, degradation =
      match warm with
      | Some s ->
        let ecs = List.map (fun r -> r.Bonsai_api.ec) s.Bonsai_api.results in
        ( Option.get (Op.warm_result s (Op.select_ec ecs p.ec)),
          s.Bonsai_api.skipped_anycast,
          s.Bonsai_api.degradation )
      | None -> (
        let ecs = Ecs.compute net in
        let ec = Op.select_ec ecs p.ec in
        let anycast =
          List.length
            (List.filter
               (fun ec -> List.compare_length_with ec.Ecs.ec_origins 1 <> 0)
               ecs)
        in
        match Bonsai_api.compress_ec ~budget net ec with
        | Ok r -> (r, anycast, None)
        | Error (Bonsai_error.Budget_exceeded info) ->
          ( Bonsai_api.identity_result net ec,
            anycast,
            Some { Bonsai_api.deg_info = info; deg_completed = 0; deg_total = 1 } )
        | Error e -> Bonsai_error.error e)
    in
    let violations = if Option.is_none degradation then check r else None in
    let check_fallback = match violations with Some (_ :: _) -> true | _ -> false in
    let r =
      if check_fallback then Bonsai_api.identity_result net r.Bonsai_api.ec
      else r
    in
    Option.iter
      (fun path -> Dot.write_file ~path r.Bonsai_api.abstraction.Abstraction.abs_graph)
      p.dot;
    make ~check_fallback ~skipped_anycast ~degradation [ { res = r; violations } ]

let degraded t = Option.is_some t.degradation || t.check_fallback

let roles_json net (r : Bonsai_api.ec_result) =
  let t = r.Bonsai_api.abstraction in
  if r.Bonsai_api.degraded then []
  else
    Array.to_list
      (Array.mapi
         (fun gid members ->
           Json.Obj
             [
               ("id", Json.Int gid);
               ("copies", Json.Int t.Abstraction.copies.(gid));
               ("members", Op.names_json (Graph.name net.Device.graph) members);
             ])
         t.Abstraction.groups)

let row_json t { res = r; violations } =
  let a = r.Bonsai_api.abstraction in
  Json.Obj
    ([
       ("destination", Op.prefix r.Bonsai_api.ec.Ecs.ec_prefix);
       ("abstract_nodes", Json.Int (Abstraction.n_abstract a));
       ("abstract_links", Json.Int (Graph.n_links a.Abstraction.abs_graph));
       ("degraded", Json.Bool r.Bonsai_api.degraded);
     ]
    @ (match violations with
      | Some vs -> [ ("check_violations", Json.Int (List.length vs)) ]
      | None -> [])
    @
    if Option.is_some t.whole then []
    else
      [
        ( "refine_iterations",
          Json.Int r.Bonsai_api.refine_stats.Refine.iterations );
        ("roles", Json.List (roles_json t.net r));
      ])

let to_json t =
  let g = t.net.Device.graph in
  Json.Obj
    [
      ("network", Op.str t.spec);
      ("ecs", Json.Int (List.length t.rows));
      ("skipped_anycast", Json.Int t.skipped_anycast);
      ("degraded", Json.Bool (degraded t));
      ("classes", Json.List (List.map (row_json t) t.rows));
      ("nodes", Json.Int (Graph.n_nodes g));
      ("links", Json.Int (Graph.n_links g));
      ("degradation", Op.degradation_json t.degradation);
      ( "fallback",
        Op.str
          (if t.check_fallback then "check"
           else if Option.is_some t.degradation then "budget"
           else "none") );
    ]

let pp_check ppf (r : Bonsai_api.ec_result) vs =
  let p = r.Bonsai_api.ec.Ecs.ec_prefix in
  match vs with
  | [] -> Format.fprintf ppf "check %a: ok@." Prefix.pp p
  | vs ->
    Format.fprintf ppf "check %a: %d violation%s@." Prefix.pp p
      (List.length vs) (Op.plural (List.length vs));
    List.iter (Format.fprintf ppf "  %a@." Check.pp_violation) vs

let pp ppf t =
  match (t.whole, t.rows) with
  | Some s, rows ->
    Format.fprintf ppf "%a@." Bonsai_api.pp_summary s;
    List.iter
      (fun { res; violations } -> Option.iter (pp_check ppf res) violations)
      rows
  | None, [ { res = r; violations } ] ->
    Option.iter (pp_check ppf r) violations;
    let a = r.Bonsai_api.abstraction in
    Format.fprintf ppf "%a@." Abstraction.pp_summary a;
    Format.fprintf ppf "compression time: %.3fs (%d refinement iterations)@."
      r.Bonsai_api.time_s r.Bonsai_api.refine_stats.Refine.iterations;
    (* the identity fallback has one role per node — listing it is noise *)
    if not r.Bonsai_api.degraded then
      Array.iteri
        (fun gid members ->
          let n = List.length members in
          Format.fprintf ppf "  role %d (%d node%s%s): %s@." gid n (Op.plural n)
            (if a.Abstraction.copies.(gid) > 1 then
               Printf.sprintf ", %d copies" a.Abstraction.copies.(gid)
             else "")
            (String.concat ", "
               (List.map (Graph.name t.net.Device.graph)
                  (List.filteri (fun i _ -> i < 6) members)
               @ if n > 6 then [ "..." ] else [])))
        a.Abstraction.groups;
    Option.iter
      (Format.fprintf ppf "abstract topology written to %s@.")
      t.dot;
    (match t.degradation with
    | Some d -> Format.fprintf ppf "@[<v>%a@]@." Bonsai_api.pp_degradation d
    | None -> ());
    if t.check_fallback then
      Format.fprintf ppf
        "DEGRADED: abstraction failed --check; fell back to the identity \
         abstraction (abstract network = concrete network)@."
  | None, _ -> ()
