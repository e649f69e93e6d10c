(* The `compress --all` path and the checks layered on top of it, one
   destination class at a time.

   Set-up parses the network's configuration text, computes the
   destination classes and builds the shared policy universe. Then every
   selected class is compressed (one shared universe, as `compress --all`
   does), certified (sample audit, against a universe the engine never
   touched) and checked for data-plane bisimulation. Each class goes
   through this in every pass; its compress, certify and data-plane check
   times are each the fastest of its passes.

   The traced run replays [Bonsai_api.compress_ec_exn] stage by stage
   through the same public functions — edge signatures, refinement,
   abstraction build — so each stage's self time is measured from
   outside the library. The signatures are forced eagerly, so the three
   stages are disjoint and add up to the class's compress time (the
   memoized lookups refinement makes count as refinement). Each class is
   also compressed untraced, on a universe of its own, right before its
   traced run; the difference is the tracing overhead. The two must agree
   on the role partition and the abstract graph's size (a gate check), so
   the replay cannot drift from the pipeline it stands for. *)

open Meter

let parse text =
  match Config_text.parse text with
  | Ok net -> net
  | Error e -> failwith ("config text does not parse: " ^ e)

let single_origin ecs =
  List.filter
    (fun ec -> match ec.Ecs.ec_origins with [ _ ] -> true | _ -> false)
    ecs

(* [n] classes, each group that [group] puts them in taking its share
   (rounded on the running total, so the shares add up to [n]). A rare
   kind of class — the WAN's 13 NOC-originated classes, three times the
   size of the others — is then sampled equally often by every seed.
   Within a group, the sorted class list is cut into equal strata and one
   class is taken from each: the seed picks which ([rng]), or else the
   middle one. Every sample covers the whole prefix range, so the work of
   a run varies little from seed to seed. *)
let stratified ?rng ~n ~group ecs =
  let total = List.length ecs in
  let n = min n total in
  let share c = ((n * c) + (total / 2)) / total in
  let groups =
    List.fold_left
      (fun gs ec -> if List.mem (group ec) gs then gs else gs @ [ group ec ])
      [] ecs
  in
  snd
    (List.fold_left
       (fun (seen, picked) g ->
         let a = Array.of_list (List.filter (fun ec -> String.equal (group ec) g) ecs) in
         let m = Array.length a in
         let k = share (seen + m) - share seen in
         ( seen + m,
           picked
           @ List.init k (fun j ->
                 let lo = j * m / k and hi = (j + 1) * m / k in
                 match rng with
                 | Some rng -> a.(lo + Random.State.int rng (hi - lo))
                 | None -> a.((lo + hi) / 2)) ))
       (0, []) groups)

(* Role partitions compared up to renaming of group ids. *)
let canonical (group_of : int array) =
  let ids = Hashtbl.create 16 in
  Array.map
    (fun g ->
      match Hashtbl.find_opt ids g with
      | Some i -> i
      | None ->
        let i = Hashtbl.length ids in
        Hashtbl.replace ids g i;
        i)
    group_of

(* Same role partition, same abstract graph size. *)
let same_compression (a : Bonsai_api.ec_result) (b : Bonsai_api.ec_result) =
  let a = a.Bonsai_api.abstraction and b = b.Bonsai_api.abstraction in
  canonical a.Abstraction.group_of = canonical b.Abstraction.group_of
  && Abstraction.n_abstract a = Abstraction.n_abstract b
  && Graph.n_links a.Abstraction.abs_graph = Graph.n_links b.Abstraction.abs_graph

type setup = {
  net : Device.network;
  ecs : Ecs.ec list;
  universe : Policy_bdd.universe;
}

type setup_times = { parse_s : float; ecs_s : float; universe_s : float }

let setup_once text =
  let net, parse_s = time (fun () -> parse text) in
  let ecs, ecs_s = time (fun () -> Ecs.compute net) in
  let universe, universe_s =
    time (fun () -> Policy_bdd.universe_of_network net)
  in
  ({ net; ecs; universe }, { parse_s; ecs_s; universe_s })

(* --- traced compression ---------------------------------------------- *)

type stages = {
  signatures : span;
  refine : span;
  abstraction : span;
  mutable signature_calls : int;
  mutable iterations : int;
  mutable splits : int;
  mutable traced_s : float;
  mutable untraced_s : float;
  mutable worst_coverage : float;
}

let stages () =
  {
    signatures = span ();
    refine = span ();
    abstraction = span ();
    signature_calls = 0;
    iterations = 0;
    splits = 0;
    traced_s = 0.0;
    untraced_s = 0.0;
    worst_coverage = 1.0;
  }

let stage_sum st = st.signatures.busy_s +. st.refine.busy_s +. st.abstraction.busy_s

(* [Bonsai_api.compress_ec_exn], stage by stage. *)
let traced_compress st ~universe (net : Device.network) (ec : Ecs.ec) =
  let dest = Ecs.single_origin ec in
  let g = net.Device.graph in
  let before = stage_sum st in
  let t0 = now () in
  let universe, signature =
    timed st.signatures (fun () ->
        let u, signature =
          Compile.edge_signatures ~universe net ~dest:ec.Ecs.ec_prefix
        in
        for v = 0 to Graph.n_nodes g - 1 do
          Array.iter (fun w -> ignore (signature v w)) (Graph.succ g v)
        done;
        (u, signature))
  in
  let counted u v =
    st.signature_calls <- st.signature_calls + 1;
    signature u v
  in
  let prefs_memo = Hashtbl.create 64 in
  let prefs u =
    match Hashtbl.find_opt prefs_memo u with
    | Some p -> p
    | None ->
      let p = Bonsai_api.effective_prefs net ec u in
      Hashtbl.replace prefs_memo u p;
      p
  in
  let live_self u v = (signature u v).Compile.sig_static in
  let partition, refine_stats =
    timed st.refine (fun () ->
        Refine.find_partition net ~dest ~live_self ~signature:counted ~prefs)
  in
  let copies m =
    let cls = Union_split_find.find partition m in
    List.length
      (Refine.group_prefs ~prefs (Union_split_find.members partition cls))
  in
  let abstraction =
    timed st.abstraction (fun () ->
        Abstraction.make net ~dest ~dest_prefix:ec.Ecs.ec_prefix ~universe
          ~partition ~copies)
  in
  let dt = now () -. t0 in
  st.traced_s <- st.traced_s +. dt;
  st.worst_coverage <- Float.min st.worst_coverage ((stage_sum st -. before) /. dt);
  st.iterations <- st.iterations + refine_stats.Refine.iterations;
  st.splits <- st.splits + refine_stats.Refine.splits;
  { Bonsai_api.ec; abstraction; refine_stats; time_s = dt; degraded = false }

(* The Fig. 12 payoff: steps to solve a class's concrete SRP and its
   abstract SRP. *)
let solve_steps (type a) (srp : a Srp.t) =
  match Solver.solve srp with
  | Ok (_, stats) -> stats.Solver.steps
  | Error _ -> failwith "solver: no stable solution"

(* --- the run ----------------------------------------------------------- *)

type t = {
  text : string;
  net : Device.network;
  universe : Policy_bdd.universe;
  protocol : [ `Bgp | `Multi ];
  mutable times : setup_times list;
  classes : Ecs.ec list;
  trace : bool;
  traced_universe : Policy_bdd.universe option;
  mutable cert_universe : Policy_bdd.universe option;
  st : stages;
  best_compress : float array;  (** per class: fastest pass *)
  best_certify : float array;
  best_dp : float array;
  mutable abs_sizes : (int * int) list;  (** first pass: abstract nodes, links *)
  certify : span;
  dp : span;
  conc : span;
  abs : span;
  mutable obligations : int;
  mutable traces : int;
  mutable conc_steps : int;
  mutable abs_steps : int;
  mutable attempted : int;
  mutable failed : int;
}

let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let prepare ~pick ~trace text =
  let s, times = setup_once text in
  let classes = pick (single_origin s.ecs) in
  let best () = Array.make (List.length classes) infinity in
  {
    text;
    net = s.net;
    universe = s.universe;
    protocol = Dataplane.detect_protocol s.net;
    times = [ times ];
    classes;
    trace;
    traced_universe =
      (if trace then Some (Policy_bdd.universe_of_network s.net) else None);
    cert_universe = None;
    st = stages ();
    best_compress = best ();
    best_certify = best ();
    best_dp = best ();
    abs_sizes = [];
    certify = span ();
    dp = span ();
    conc = span ();
    abs = span ();
    obligations = 0;
    traces = 0;
    conc_steps = 0;
    abs_steps = 0;
    attempted = 0;
    failed = 0;
  }

(* [sp] times [f] and keeps, in [best.(i)], the fastest of its passes. *)
let best_of best i sp f =
  let before = sp.busy_s in
  let r = timed sp f in
  best.(i) <- Float.min best.(i) (sp.busy_s -. before);
  r

(* One class (the [i]-th): compress, certify, data-plane check; in the
   traced run also the staged compression and the two solves. *)
let step t ~first i ec =
  let net = t.net in
  let r, dt =
    time (fun () -> Bonsai_api.compress_ec_exn ~universe:t.universe net ec)
  in
  let r, dt =
    match t.traced_universe with
    | None -> (r, dt)
    | Some universe ->
      t.st.untraced_s <- t.st.untraced_s +. dt;
      let traced = traced_compress t.st ~universe net ec in
      (* the replay must be the pipeline it stands for *)
      check t (same_compression r traced);
      (traced, traced.Bonsai_api.time_s)
  in
  t.best_compress.(i) <- Float.min t.best_compress.(i) dt;
  if first then begin
    let a = r.Bonsai_api.abstraction in
    t.abs_sizes <-
      (Abstraction.n_abstract a, Graph.n_links a.Abstraction.abs_graph)
      :: t.abs_sizes
  end;
  let verdict =
    best_of t.best_certify i t.certify (fun () ->
        (* the certifier's own universe, built once, on first use *)
        let universe =
          match t.cert_universe with
          | Some u -> u
          | None ->
            let u = Policy_bdd.universe_of_network net in
            t.cert_universe <- Some u;
            u
        in
        Certify.check_result ~universe ~audit:Certify.Sample net r)
  in
  t.obligations <- t.obligations + Certify.obligation_count verdict;
  check t (match verdict with Certify.Certified _ -> true | _ -> false);
  (match
     best_of t.best_dp i t.dp (fun () ->
         Dp_bisim.check ~protocol:t.protocol net [ r ])
   with
  | Dp_bisim.Equivalent { traces; _ } ->
    t.traces <- t.traces + traces;
    check t true
  | _ -> check t false);
  if t.trace then begin
    let a = r.Bonsai_api.abstraction in
    let dest = a.Abstraction.dest and dest_prefix = a.Abstraction.dest_prefix in
    let c, s =
      match t.protocol with
      | `Bgp ->
        ( timed t.conc (fun () ->
              solve_steps (Compile.bgp_srp net ~dest ~dest_prefix)),
          timed t.abs (fun () -> solve_steps (Abstraction.bgp_srp a)) )
      | `Multi ->
        ( timed t.conc (fun () ->
              solve_steps (Compile.multi_srp net ~dest ~dest_prefix)),
          timed t.abs (fun () -> solve_steps (Abstraction.multi_srp a)) )
    in
    t.conc_steps <- t.conc_steps + c;
    t.abs_steps <- t.abs_steps + s
  end

(* Set-up again, for its time only. *)
let setup_steps t ~reps =
  List.init reps (fun _ () -> t.times <- snd (setup_once t.text) :: t.times)

(* [passes] rounds over the classes, one closure per class and round. *)
let steps t ~passes =
  List.concat
    (List.init passes (fun p ->
         List.mapi (fun i ec () -> step t ~first:(p = 0) i ec) t.classes))

type result = {
  setup_s : float;  (** median over the set-ups *)
  per_class_s : float list;  (** compress time of each class, fastest pass *)
  compress_s : float;  (** summed over the classes, fastest pass each *)
  certify_s : float;  (** likewise *)
  dp_check_s : float;  (** likewise *)
  abs_nodes_mean : float;
  abs_links_mean : float;
  attempted : int;
  failed : int;
  layers : metric list;  (** traced run only *)
}

let finish t =
  let total a = sum (Array.to_list a) in
  let mean_of f = mean (List.map (fun x -> float_of_int (f x)) t.abs_sizes) in
  let st = t.st in
  let layers =
    if not t.trace then []
    else
      let bdd = Bdd.stats (Option.get t.traced_universe).Policy_bdd.man in
      let count name n = metric name "count" (float_of_int n) in
      let median_of f = median (List.map f t.times) in
      [
        metric "config.parse_s" "s" (median_of (fun x -> x.parse_s));
        metric "ecs.compute_s" "s" (median_of (fun x -> x.ecs_s));
        metric "policy_bdd.universe_s" "s" (median_of (fun x -> x.universe_s));
        count "bdd.nodes" bdd.Bdd.nodes;
        count "bdd.apply_misses" bdd.Bdd.apply_misses;
        count "bdd.ite_misses" bdd.Bdd.ite_misses;
        metric "compile.signatures_s" "s" st.signatures.busy_s;
        metric "compile.signatures_alloc_mw" "Mwords" (mwords st.signatures);
        count "compile.signature_calls" st.signature_calls;
        metric "refine.s" "s" st.refine.busy_s;
        metric "refine.alloc_mw" "Mwords" (mwords st.refine);
        count "refine.iterations" st.iterations;
        count "refine.splits" st.splits;
        metric "abstraction.make_s" "s" st.abstraction.busy_s;
        metric "abstraction.alloc_mw" "Mwords" (mwords st.abstraction);
        metric "compress.stage_coverage" "ratio" (stage_sum st /. st.traced_s);
        metric "compress.worst_class_coverage" "ratio" st.worst_coverage;
        metric "trace.compress_overhead_pct" "%"
          (100.0 *. ((st.traced_s /. st.untraced_s) -. 1.0));
        metric "certify.check_s" "s" t.certify.busy_s;
        metric "certify.alloc_mw" "Mwords" (mwords t.certify);
        count "certify.obligations" t.obligations;
        metric "dp_bisim.check_s" "s" t.dp.busy_s;
        metric "dp_bisim.alloc_mw" "Mwords" (mwords t.dp);
        count "dp_bisim.traces" t.traces;
        metric "solver.concrete_s" "s" t.conc.busy_s;
        metric "solver.abstract_s" "s" t.abs.busy_s;
        count "solver.concrete_steps" t.conc_steps;
        count "solver.abstract_steps" t.abs_steps;
      ]
  in
  {
    setup_s = median (List.map (fun x -> x.parse_s +. x.ecs_s +. x.universe_s) t.times);
    per_class_s = Array.to_list t.best_compress;
    compress_s = total t.best_compress;
    certify_s = total t.best_certify;
    dp_check_s = total t.best_dp;
    abs_nodes_mean = mean_of fst;
    abs_links_mean = mean_of snd;
    attempted = t.attempted;
    failed = t.failed;
    layers;
  }
