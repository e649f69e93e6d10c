(* dataplane-diff: the exact forwarding-table changes between two
   networks. Read-only: a warm signature cache is only consulted. *)

type params = { network : string; to_ : string }

type result = {
  spec : string;
  to_spec : string;
  old_net : Device.network;
  new_net : Device.network;
  rep : Dp_diff.report;
}

let run ~budget ?cache ~new_net old_net (p : params) =
  Op.catch @@ fun () ->
  let rep =
    Op.ok_exn
      (Dp_diff.run ~budget ?cache ~old_net ~new_net (Delta.diff old_net new_net))
  in
  { spec = p.network; to_spec = p.to_; old_net; new_net; rep }

let changed t = Dp_diff.changed t.rep

(* a removed entry's router is named in the old network *)
let router_name t (c : Dp_diff.change) =
  let net = match c.Dp_diff.c_kind with Dp_diff.Removed -> t.old_net | _ -> t.new_net in
  Graph.name net.Device.graph c.Dp_diff.c_router

let to_json t =
  let rep = t.rep in
  let added, removed, modified = Dp_diff.counts rep in
  let entry_json net = function
    | None -> Json.Null
    | Some (e : Dataplane.entry) ->
      let names = Op.names_json (Graph.name net.Device.graph) in
      Json.Obj
        [
          ("next_hops", names e.Dataplane.e_next_hops);
          ("acl_dropped", names e.Dataplane.e_acl_dropped);
        ]
  in
  let change_json (c : Dp_diff.change) =
    Json.Obj
      [
        ("router", Op.str (router_name t c));
        ("prefix", Op.prefix c.Dp_diff.c_prefix);
        ("kind", Op.str (Dp_diff.kind_string c.Dp_diff.c_kind));
        ("old", entry_json t.old_net c.Dp_diff.c_old);
        ("new", entry_json t.new_net c.Dp_diff.c_new);
      ]
  in
  Json.Obj
    [
      ("network", Op.str t.spec);
      ("to", Op.str t.to_spec);
      ("deltas", Json.Int (List.length rep.Dp_diff.dp_deltas));
      ("changed", Json.Bool (changed t));
      ("classes", Json.Int rep.Dp_diff.dp_classes);
      ("reused", Json.Int rep.Dp_diff.dp_reused);
      ("recompiled", Json.Int rep.Dp_diff.dp_recompiled);
      ("full_rebuild", Json.Bool rep.Dp_diff.dp_full_rebuild);
      ("added", Json.Int added);
      ("removed", Json.Int removed);
      ("modified", Json.Int modified);
      ("changes", Op.list change_json rep.Dp_diff.dp_changes);
      ("unknown", Op.list Op.prefix rep.Dp_diff.dp_unknown);
      ("degraded", Json.Bool (Option.is_some rep.Dp_diff.dp_degradation));
      ("identical", Json.Bool ((not (changed t)) && rep.Dp_diff.dp_unknown = []));
      ("delta_list", Op.deltas_json rep.Dp_diff.dp_deltas);
      ("anycast", Json.Int rep.Dp_diff.dp_anycast);
      ("degradation", Op.degradation_json rep.Dp_diff.dp_degradation);
    ]

let pp ppf t =
  let rep = t.rep in
  let hops net = function
    | None -> "-"
    | Some (e : Dataplane.entry) ->
      let nm = Graph.name net.Device.graph in
      Printf.sprintf "[%s]%s"
        (String.concat "," (List.map nm e.Dataplane.e_next_hops))
        (match e.Dataplane.e_acl_dropped with
        | [] -> ""
        | ds -> Printf.sprintf " (acl-dropped %s)" (String.concat "," (List.map nm ds)))
  in
  let added, removed, modified = Dp_diff.counts rep in
  Format.fprintf ppf "deltas (%d):@." (List.length rep.Dp_diff.dp_deltas);
  Op_diff.pp_deltas ppf rep.Dp_diff.dp_deltas;
  Format.fprintf ppf "classes: %d (%d reused, %d recompiled)%s@."
    rep.Dp_diff.dp_classes rep.Dp_diff.dp_reused rep.Dp_diff.dp_recompiled
    (if rep.Dp_diff.dp_full_rebuild then " [full rebuild]" else "");
  Format.fprintf ppf "fib changes: %d added, %d removed, %d modified@." added
    removed modified;
  List.iter
    (fun (c : Dp_diff.change) ->
      let sym =
        match c.Dp_diff.c_kind with
        | Dp_diff.Added -> "+"
        | Dp_diff.Removed -> "-"
        | Dp_diff.Modified -> "~"
      in
      Format.fprintf ppf "  %s %s %a: %s -> %s@." sym (router_name t c)
        Prefix.pp c.Dp_diff.c_prefix
        (hops t.old_net c.Dp_diff.c_old)
        (hops t.new_net c.Dp_diff.c_new))
    rep.Dp_diff.dp_changes;
  List.iter
    (fun p -> Format.fprintf ppf "  ? %a: unknown (not compiled)@." Prefix.pp p)
    rep.Dp_diff.dp_unknown;
  match rep.Dp_diff.dp_degradation with
  | None -> ()
  | Some d -> Format.fprintf ppf "@[<v>%a@]@." Bonsai_api.pp_degradation d
