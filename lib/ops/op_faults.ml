(* faults: re-solve one destination class under link-failure scenarios
   and check its abstraction stays sound under each. The abstraction is
   the caller's warm one when it has it, else this class alone is
   compressed. *)

type params = {
  network : string;
  ec : string option;
  k : int;  (** maximum simultaneous link failures *)
  samples : int option;  (** force sampling with this many scenarios *)
  seed : int;
}

type result = {
  spec : string;
  net : Device.network;
  ec : Ecs.ec;
  k : int;
  report : Bgp.attr Fault_engine.report;
  cache : Bgp.attr Fault_engine.cache;
      (** concrete solutions shared by the survey and the soundness sweep *)
  abstraction : Abstraction.t;
  break_ : (Scenario.t * Soundness.mismatch) option;
}

let run ~budget ?warm net (p : params) =
  Op.catch @@ fun () ->
  let ec = Op.find_ec net p.ec in
  let srp =
    Compile.bgp_srp net ~dest:(Ecs.single_origin ec) ~dest_prefix:ec.Ecs.ec_prefix
  in
  let plan = Fault_engine.plan ?samples:p.samples ~seed:p.seed ~k:p.k net.Device.graph in
  (* One concrete-side cache spans the survey and the soundness sweep:
     the sweep re-solves the scenarios the survey just solved (and
     shrinking probes sub-scenarios). *)
  let cache = Fault_engine.cache () in
  let report = Fault_engine.survey ~budget ~cache srp plan in
  let r =
    match Option.bind warm (fun s -> Op.warm_result s ec) with
    | Some r -> r
    | None -> Bonsai_api.compress_ec_exn net ec
  in
  let abstraction = r.Bonsai_api.abstraction in
  let break_ =
    Soundness.first_break abstraction ~concrete:srp ~concrete_cache:cache
      ~abstract_:(Abstraction.bgp_srp abstraction)
      plan.Fault_engine.scenarios
  in
  { spec = p.network; net; ec; k = p.k; report; cache; abstraction; break_ }

(* exit 1: some scenario disconnects, diverges or breaks the abstraction *)
let failing t =
  t.report.Fault_engine.n_disconnected + t.report.Fault_engine.n_diverged > 0
  || Option.is_some t.break_

let disconnected t =
  List.filter_map
    (function
      | sc, Fault_engine.Disconnected (_, stranded) -> Some (sc, stranded)
      | _ -> None)
    t.report.Fault_engine.outcomes

let diverged t =
  List.filter_map
    (function sc, Fault_engine.Diverged d -> Some (sc, d) | _ -> None)
    t.report.Fault_engine.outcomes

let to_json t =
  let g = t.net.Device.graph in
  let names = Graph.name g in
  let rep = t.report in
  let plan = rep.Fault_engine.plan in
  let sc_json = Op.scenario_json ~names in
  let verdict_json (d : _ Solver.diagnosis) =
    match d.Solver.diag_verdict with
    | Solver.Oscillation { period; participants } ->
      [
        ("verdict", Op.str "oscillation");
        ("period", Json.Int period);
        ("participants", Op.names_json names participants);
      ]
    | Solver.Likely_convergent -> [ ("verdict", Op.str "likely-convergent") ]
    | Solver.Inconclusive rounds ->
      [ ("verdict", Op.str "inconclusive"); ("rounds", Json.Int rounds) ]
  in
  Json.Obj
    [
      ("network", Op.str t.spec);
      ("destination", Op.prefix t.ec.Ecs.ec_prefix);
      ("scenarios", Json.Int (List.length plan.Fault_engine.scenarios));
      ("exhaustive", Json.Bool plan.Fault_engine.exhaustive);
      ("stable", Json.Int rep.Fault_engine.n_stable);
      ("disconnected", Json.Int rep.Fault_engine.n_disconnected);
      ("diverged", Json.Int rep.Fault_engine.n_diverged);
      ("skipped", Json.Int rep.Fault_engine.n_skipped);
      ("sound", Json.Bool (Option.is_none t.break_));
      ( "break_scenario",
        match t.break_ with
        | None -> Json.Null
        | Some (sc, _) -> Op.str (Format.asprintf "%a" (Scenario.pp ~names) sc) );
      ("nodes", Json.Int (Graph.n_nodes g));
      ("links", Json.Int (Graph.n_links g));
      ("k", Json.Int t.k);
      ("mode", Op.str (Op.mode plan.Fault_engine.exhaustive));
      ( "disconnected_scenarios",
        Op.list
          (fun (sc, stranded) ->
            Json.Obj
              [ ("scenario", sc_json sc); ("stranded", Op.names_json names stranded) ])
          (disconnected t) );
      ( "diverged_scenarios",
        Op.list
          (fun (sc, d) -> Json.Obj (("scenario", sc_json sc) :: verdict_json d))
          (diverged t) );
      ("abstract_nodes", Json.Int (Abstraction.n_abstract t.abstraction));
      ( "break",
        match t.break_ with
        | None -> Json.Null
        | Some (sc, m) ->
          Json.Obj
            [
              ("scenario", sc_json sc);
              ("node", Op.str (names m.Soundness.mis_node));
              ( "abs_node",
                Op.str (Graph.name t.abstraction.Abstraction.abs_graph m.Soundness.mis_abs) );
              ("concrete_reaches", Json.Bool m.Soundness.concrete_reaches);
              ("abstract_reaches", Json.Bool m.Soundness.abstract_reaches);
            ] );
    ]

let pp ppf t =
  let g = t.net.Device.graph in
  let name = Graph.name g in
  let rep = t.report in
  let plan = rep.Fault_engine.plan in
  let pp_sc = Scenario.pp ~names:name in
  let side reaches stable =
    if not stable then "diverged" else if reaches then "reaches" else "does not reach"
  in
  Format.fprintf ppf "destination %a (originated at %s)@." Prefix.pp
    t.ec.Ecs.ec_prefix
    (name (Ecs.single_origin t.ec));
  Format.fprintf ppf "topology: %d nodes, %d links@." (Graph.n_nodes g)
    (Graph.n_links g);
  Format.fprintf ppf "scenarios: %d (%s, up to %d failed link%s)@."
    (List.length plan.Fault_engine.scenarios)
    (Op.mode plan.Fault_engine.exhaustive)
    t.k (Op.plural t.k);
  Format.fprintf ppf "  stable & reachable: %d@." rep.Fault_engine.n_stable;
  Format.fprintf ppf "  disconnected:       %d@." rep.Fault_engine.n_disconnected;
  Format.fprintf ppf "  diverged:           %d@." rep.Fault_engine.n_diverged;
  if rep.Fault_engine.n_skipped > 0 then
    Format.fprintf ppf "  skipped (budget):   %d@." rep.Fault_engine.n_skipped;
  let cap = 12 in
  let listing title items pp_item =
    if items <> [] then begin
      Format.fprintf ppf "%s scenarios%s:@." title
        (if List.length items > cap then
           Printf.sprintf " (first %d of %d)" cap (List.length items)
         else "");
      List.iteri (fun i x -> if i < cap then pp_item x) items
    end
  in
  listing "disconnected" (disconnected t) (fun (sc, stranded) ->
      Format.fprintf ppf "  %a: %d stranded (%s%s)@." pp_sc sc
        (List.length stranded)
        (String.concat ", " (List.map name (List.filteri (fun i _ -> i < 6) stranded)))
        (if List.length stranded > 6 then ", ..." else ""));
  listing "diverged" (diverged t) (fun (sc, (d : _ Solver.diagnosis)) ->
      Format.fprintf ppf "  %a: %a@." pp_sc sc
        (Solver.pp_verdict ~graph:d.Solver.diag_sol.Solution.srp.Srp.graph)
        d.Solver.diag_verdict);
  let a = t.abstraction in
  Format.fprintf ppf "abstraction: %d nodes, %d links@." (Abstraction.n_abstract a)
    (Graph.n_links a.Abstraction.abs_graph);
  match t.break_ with
  | None ->
    Format.fprintf ppf "  fault soundness: ok (verdicts agree on every scenario)@."
  | Some (sc, m) ->
    Format.fprintf ppf "  fault soundness: BROKEN@.";
    Format.fprintf ppf "  minimal failing scenario: %a@." pp_sc sc;
    Format.fprintf ppf "  first diverging pair: %s vs %s (concrete %s, abstract %s)@."
      (name m.Soundness.mis_node)
      (Graph.name a.Abstraction.abs_graph m.Soundness.mis_abs)
      (side m.Soundness.concrete_reaches m.Soundness.concrete_stable)
      (side m.Soundness.abstract_reaches m.Soundness.abstract_stable)
