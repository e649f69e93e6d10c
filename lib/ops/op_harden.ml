(* harden: compress one destination class with counterexample-guided
   repair until its abstraction is sound under every swept failure
   scenario (lib/repair). *)

type params = {
  network : string;
  ec : string option;
  k : int;
  rounds : int;  (** maximum repair rounds; 0 only diagnoses *)
  frontier : int;  (** largest scenario space swept exhaustively *)
  samples : int option;
  seed : int;
}

(* Repair's own defaults; serve fills an absent parameter from these. *)
let defaults network =
  { network; ec = None; k = 1; rounds = 8; frontier = 1024; samples = None; seed = 0 }

type result = {
  spec : string;
  net : Device.network;
  ec : Ecs.ec;
  max_rounds : int;
  r : Repair.t;
}

let run ~budget net (p : params) =
  Op.catch @@ fun () ->
  let ec = Op.find_ec net p.ec in
  let r =
    Op.ok_exn
      (Repair.harden ~k:p.k ~rounds:p.rounds ~frontier:p.frontier ?samples:p.samples
         ~seed:p.seed ~budget net ec)
  in
  { spec = p.network; net; ec; max_rounds = p.rounds; r }

let fallback_name = function
  | Bonsai_api.No_fallback -> "none"
  | Bonsai_api.Budget_fallback _ -> "budget"
  | Bonsai_api.Rounds_fallback -> "rounds"

let to_json t =
  let r = t.r in
  let g = t.net.Device.graph in
  let names = Graph.name g in
  let a = r.Repair.result.Bonsai_api.abstraction in
  let rn, re = Repair.ratio r in
  let round_json (rl : Repair.round_log) =
    Json.Obj
      ([
         ("round", Json.Int rl.Repair.rl_round);
         ("abs_nodes", Json.Int rl.Repair.rl_abs_nodes);
         ("abs_links", Json.Int rl.Repair.rl_abs_links);
         ("scenarios", Json.Int rl.Repair.rl_scenarios);
       ]
      @ (match rl.Repair.rl_counterexample with
        | None -> []
        | Some sc ->
          [
            ("counterexample", Op.scenario_json ~names sc);
            ("mismatches", Json.Int (List.length rl.Repair.rl_mismatches));
          ])
      @ [
          ("new_pins", Op.names_json names rl.Repair.rl_new_pins);
          ("total_pins", Json.Int rl.Repair.rl_total_pins);
        ])
  in
  Json.Obj
    [
      ("network", Op.str t.spec);
      ("destination", Op.prefix t.ec.Ecs.ec_prefix);
      ("rounds", Json.Int (List.length r.Repair.rounds));
      ("pins", Json.Int (List.length r.Repair.pins));
      ("scenarios", Json.Int r.Repair.n_scenarios);
      ("counterexamples", Json.Int r.Repair.n_counterexamples);
      ("sound", Json.Bool r.Repair.sound);
      ("fallback", Op.str (fallback_name r.Repair.fallback));
      ("abstract_nodes", Json.Int (Abstraction.n_abstract a));
      ("abstract_links", Json.Int (Graph.n_links a.Abstraction.abs_graph));
      ("nodes", Json.Int (Graph.n_nodes g));
      ("links", Json.Int (Graph.n_links g));
      ("k", Json.Int r.Repair.k);
      ("mode", Op.str (Op.mode r.Repair.plan_exhaustive));
      ("round_log", Op.list round_json r.Repair.rounds);
      ("pinned", Op.names_json names r.Repair.pins);
      ("cache_hits", Json.Int r.Repair.cache_hits);
      ("ratio_nodes", Json.Float rn);
      ("ratio_links", Json.Float re);
    ]

let pp ppf t =
  let r = t.r in
  let g = t.net.Device.graph in
  let name = Graph.name g in
  let a = r.Repair.result.Bonsai_api.abstraction in
  let rn, re = Repair.ratio r in
  let pp_sc = Scenario.pp ~names:name in
  Format.fprintf ppf "destination %a (originated at %s)@." Prefix.pp
    t.ec.Ecs.ec_prefix
    (name (Ecs.single_origin t.ec));
  Format.fprintf ppf "topology: %d nodes, %d links@." (Graph.n_nodes g)
    (Graph.n_links g);
  Format.fprintf ppf "harden: k=%d, %s scenarios, max %d repair round%s@."
    r.Repair.k
    (Op.mode r.Repair.plan_exhaustive)
    t.max_rounds (Op.plural t.max_rounds);
  List.iter
    (fun (rl : Repair.round_log) ->
      match rl.Repair.rl_counterexample with
      | None ->
        Format.fprintf ppf "round %d: %d nodes, %d links; sound (%d scenarios)@."
          rl.Repair.rl_round rl.Repair.rl_abs_nodes rl.Repair.rl_abs_links
          rl.Repair.rl_scenarios
      | Some sc ->
        let m = List.length rl.Repair.rl_mismatches in
        Format.fprintf ppf
          "round %d: %d nodes, %d links; counterexample %a (%d mismatched \
           node%s); pinned %d (total %d)@."
          rl.Repair.rl_round rl.Repair.rl_abs_nodes rl.Repair.rl_abs_links pp_sc
          sc m (Op.plural m)
          (List.length rl.Repair.rl_new_pins)
          rl.Repair.rl_total_pins)
    r.Repair.rounds;
  Format.fprintf ppf "hardened: %d/%d nodes, %d/%d links (%.1fx / %.1fx)@."
    (Graph.n_nodes g) (Abstraction.n_abstract a) (Graph.n_links g)
    (Graph.n_links a.Abstraction.abs_graph)
    rn re;
  Format.fprintf ppf
    "rounds: %d, counterexamples: %d, pins: %d, scenario checks: %d, cache \
     hits: %d@."
    (List.length r.Repair.rounds)
    r.Repair.n_counterexamples (List.length r.Repair.pins) r.Repair.n_scenarios
    r.Repair.cache_hits;
  match r.Repair.fallback with
  | Bonsai_api.No_fallback -> (
    if r.Repair.sound then
      Format.fprintf ppf "fault soundness: ok (every swept scenario agrees)@."
    else begin
      Format.fprintf ppf "fault soundness: BROKEN (repair disabled)@.";
      match List.rev r.Repair.rounds with
      | { Repair.rl_counterexample = Some sc; rl_mismatches = m :: _; _ } :: _ ->
        Format.fprintf ppf "  minimal failing scenario: %a@." pp_sc sc;
        Format.fprintf ppf "  first diverging pair: %s vs %s@."
          (name m.Soundness.mis_node)
          (Graph.name a.Abstraction.abs_graph m.Soundness.mis_abs)
      | _ -> ()
    end)
  | Bonsai_api.Budget_fallback info ->
    Format.fprintf ppf "@[<v>%a@]@." Bonsai_api.pp_degradation
      { Bonsai_api.deg_info = info; deg_completed = 0; deg_total = 1 }
  | Bonsai_api.Rounds_fallback ->
    Format.fprintf ppf
      "DEGRADED: %d repair rounds exhausted; fell back to the identity \
       abstraction (sound, no compression)@."
      t.max_rounds
