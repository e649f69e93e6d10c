(* diff: the semantic deltas between two networks, and the incremental
   recompression of the old network under them. Serve recompresses its
   warm state in place; the CLI builds a state only when the networks
   differ. *)

type params = {
  network : string;
  to_ : string;
  recertify : Certify.audit option;
      (** re-certify the classes the recompression touched *)
}

type result = {
  spec : string;
  to_spec : string;
  deltas : Delta.t list;
  recert : bool;
  state : Incr.state option;  (** [None] iff identical and nothing was warm *)
  report : Incr.report option;
}

let run ~budget ?state ~new_net old_net (p : params) =
  Op.catch @@ fun () ->
  let deltas = Delta.diff old_net new_net in
  let state =
    match (state, deltas) with
    | Some st, _ -> Some st
    | None, [] -> None
    | None, _ -> Some (Op.ok_exn (Incr.init ~budget old_net))
  in
  let report =
    Option.map
      (fun st -> Op.ok_exn (Incr.recompress ~budget ?recertify:p.recertify st deltas))
      state
  in
  {
    spec = p.network;
    to_spec = p.to_;
    deltas;
    recert = Option.is_some p.recertify;
    state;
    report;
  }

let degradation t = Option.bind t.report (fun r -> r.Incr.r_degradation)

(* Everything deterministic about a recompression report (no wall
   clock, no signature-cache counters); `watch` events share it. *)
let report_fields ~recert (rep : Incr.report) =
  [
    ("ecs", Json.Int rep.Incr.r_ecs);
    ("reused", Json.Int rep.Incr.r_reused);
    ("seeded", Json.Int rep.Incr.r_seeded);
    ("scratch", Json.Int rep.Incr.r_scratch);
    ("full_rebuild", Json.Bool rep.Incr.r_full_rebuild);
    ("degraded", Json.Bool (Option.is_some rep.Incr.r_degradation));
  ]
  @
  if recert then
    [
      ("recertified", Json.Int rep.Incr.r_recertified);
      ("recert_refuted", Json.Int rep.Incr.r_recert_refuted);
    ]
  else []

let to_json t =
  Json.Obj
    ([
       ("network", Op.str t.spec);
       ("to", Op.str t.to_spec);
       ("deltas", Json.Int (List.length t.deltas));
     ]
    @ (match t.report with
      | Some rep -> report_fields ~recert:t.recert rep
      | None -> [ ("degraded", Json.Bool false) ])
    @ [
        ("identical", Json.Bool (t.deltas = []));
        ("delta_list", Op.deltas_json t.deltas);
        ("degradation", Op.degradation_json (degradation t));
      ])

let pp_report ?(recert = false) ppf (rep : Incr.report) =
  Format.fprintf ppf "classes: %d (%d reused, %d seeded, %d scratch)%s@."
    rep.Incr.r_ecs rep.Incr.r_reused rep.Incr.r_seeded rep.Incr.r_scratch
    (if rep.Incr.r_full_rebuild then " [full rebuild]" else "");
  if recert then
    Format.fprintf ppf "re-certified: %d (%d refuted, recomputed from scratch)@."
      rep.Incr.r_recertified rep.Incr.r_recert_refuted;
  Format.fprintf ppf "signature cache: %d hits, %d misses@." rep.Incr.r_cache_hits
    rep.Incr.r_cache_misses;
  match rep.Incr.r_degradation with
  | None -> ()
  | Some d -> Format.fprintf ppf "@[<v>%a@]@." Bonsai_api.pp_degradation d

let pp_deltas ppf deltas =
  List.iter (fun d -> Format.fprintf ppf "  - %a@." Delta.pp d) deltas

let pp ppf t =
  match (t.deltas, t.state, t.report) with
  | [], _, _ -> Format.fprintf ppf "networks are identical@."
  | deltas, Some st, Some rep ->
    Format.fprintf ppf "deltas (%d):@." (List.length deltas);
    pp_deltas ppf deltas;
    pp_report ~recert:t.recert ppf rep;
    Format.fprintf ppf "bdd: %a@." Bdd.pp_stats (Incr.bdd_stats st)
  | _ -> ()
