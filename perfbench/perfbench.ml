(* The benchmark program: one run of one workload, printed as one JSON line.

     perfbench --workload dc-all|wan-all|change-review --seed N
               --seconds S --trace 0|1 [--size full|tiny]

   Every workload runs the same two parts, in different proportions:
   - the `compress --all` pipeline — compress, certify, data-plane check —
     over a set of destination classes (Pipeline);
   - a change-review stream on a warm serve engine (Stream).
   dc-all and wan-all put a large class sample of the datacenter / WAN
   through the pipeline and review a short stream of edits to the same
   configuration, cut down to originate a few fixed classes. change-review
   puts every class of a fattree with an OSPF underlay through the
   pipeline and reviews a long stream of edits to it. The steps of both
   parts, and repeated set-ups, are interleaved over the run.

   Both parts are played five times over, a pass or round after the
   other, and every operation reports the fastest of its plays: the host
   this was tuned on runs the same work up to 1.5 times slower for
   seconds to minutes at a time, and the fastest of five plays that lie
   a fifth of a run apart moves far less with swings of a few seconds
   than a median or a sum of single plays does (a slowdown that outlasts
   the run moves it all the same). Latency percentiles and sums are then
   taken over these per-operation times.

   The seed picks the class sample, the edits and which of them are
   committed; [--seconds] scales how many. With [--trace 0] the result
   carries the end-to-end metrics, with [--trace 1] the per-layer ones,
   timed from outside around calls into each layer's public functions.
   Every correctness check counts as an attempted operation; the exit
   code is 1 if any failed. *)

open Meter

type workload = Dc_all | Wan_all | Change_review

let workloads =
  [ ("dc-all", Dc_all); ("wan-all", Wan_all); ("change-review", Change_review) ]

(* Per-layer metrics, in print order. Every workload reports all of them. *)
let per_layer =
  [
    ("config.parse_s", "s");
    ("ecs.compute_s", "s");
    ("policy_bdd.universe_s", "s");
    ("bdd.nodes", "count");
    ("bdd.apply_misses", "count");
    ("bdd.ite_misses", "count");
    ("compile.signatures_s", "s");
    ("compile.signatures_alloc_mw", "Mwords");
    ("compile.signature_calls", "count");
    ("refine.s", "s");
    ("refine.alloc_mw", "Mwords");
    ("refine.iterations", "count");
    ("refine.splits", "count");
    ("abstraction.make_s", "s");
    ("abstraction.alloc_mw", "Mwords");
    ("compress.stage_coverage", "ratio");
    ("compress.worst_class_coverage", "ratio");
    ("trace.compress_overhead_pct", "%");
    ("certify.check_s", "s");
    ("certify.alloc_mw", "Mwords");
    ("certify.obligations", "count");
    ("dp_bisim.check_s", "s");
    ("dp_bisim.alloc_mw", "Mwords");
    ("dp_bisim.traces", "count");
    ("solver.concrete_s", "s");
    ("solver.abstract_s", "s");
    ("solver.concrete_steps", "count");
    ("solver.abstract_steps", "count");
    ("delta.diff_s", "s");
    ("incr.recompress_s", "s");
    ("incr.reused", "count");
    ("incr.seeded", "count");
    ("incr.scratch", "count");
    ("incr.reuse_ratio", "ratio");
    ("sig_cache.hit_ratio", "ratio");
    ("dp_diff.run_s", "s");
    ("dp_diff.classes_recompiled", "count");
    ("dp_diff.classes_reused", "count");
    ("serve.handle_s", "s");
    ("serve.dispatch_self_ms", "ms");
    ("gc.minor_mw", "Mwords");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("host.ref_kernel_ms", "ms");
  ]

(* --- sizes ------------------------------------------------------------ *)

type size = {
  classes : int;  (** pipeline classes; 0 = every class *)
  passes : int;  (** pipeline rounds over the classes *)
  stream_classes : int;  (** classes the stream's network originates; 0 = all *)
  blocks : int;  (** stream blocks *)
  rounds : int;  (** plays of the whole stream *)
  mix : Stream.mix;
  setup_reps : int;  (** set-ups timed for [setup_s] *)
}

(* change-review: 85% cheap edits, 15% dirty ACL edits; half committed. *)
let review_mix =
  Stream.[ (Ospf_cost, 14, 7); (Rm_clear, 3, 1); (Acl_replace, 3, 2) ]

(* dc-all and wan-all: 85% ACL tweaks (no class affected), 15% dirty ACL
   edits; half committed, two of the ten commits dirty. As in
   [review_mix], review p95 then falls on the middle of the three dirty
   reviews of a block and commit p95 between its two dirty commits, while
   both p50s stay among the cheap ones. *)
let side_mix = Stream.[ (Acl_tweak, 17, 8); (Acl_replace, 3, 2) ]

let size workload ~tiny ~seconds =
  let per_s rate =
    max 1 (int_of_float (Float.round (rate *. float_of_int seconds)))
  in
  match (workload, tiny) with
  | (Dc_all | Wan_all), true ->
    { classes = 3; passes = 2; stream_classes = 2; blocks = 1; rounds = 2;
      mix = side_mix; setup_reps = 1 }
  | Change_review, true ->
    { classes = 0; passes = 2; stream_classes = 0; blocks = 1; rounds = 2;
      mix = review_mix; setup_reps = 1 }
  | Dc_all, false ->
    { classes = per_s 2.9; passes = 5; stream_classes = 8; blocks = per_s 0.03;
      rounds = 5; mix = side_mix; setup_reps = 51 }
  | Wan_all, false ->
    { classes = per_s 1.1; passes = 5; stream_classes = 4; blocks = per_s 0.03;
      rounds = 5; mix = side_mix; setup_reps = 31 }
  | Change_review, false ->
    { classes = 0; passes = 5; stream_classes = 0; blocks = per_s 0.03;
      rounds = 5; mix = review_mix; setup_reps = 11 }

(* --- inputs ----------------------------------------------------------- *)

let fattree_with_ospf ~k =
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k) in
  (* OSPF as an infrastructure underlay on the core and aggregation tiers
     (cost 1, area 0): the edge routers originate every destination and
     stay out of OSPF, and nothing redistributes, so OSPF carries none of
     the destinations and a link-cost change is irrelevant to every
     class. *)
  let g = net.Device.graph in
  let underlay u =
    let n = Graph.name g u in
    not (String.length n >= 4 && String.equal (String.sub n 0 4) "edge")
  in
  {
    net with
    Device.routers =
      Array.mapi
        (fun u r ->
          if not (underlay u) then r
          else
            {
              r with
              Device.ospf_links =
                Array.to_list (Graph.succ g u)
                |> List.filter underlay
                |> List.map (fun v -> (v, { Device.cost = 1; area = 0 }));
            })
        net.Device.routers;
  }

(* The same configuration, originating only the given classes' prefixes. *)
let originating (net : Device.network) (ecs : Ecs.ec list) =
  let keep p = List.exists (fun ec -> Prefix.equal ec.Ecs.ec_prefix p) ecs in
  {
    net with
    Device.routers =
      Array.map
        (fun (r : Device.router) ->
          { r with Device.originated = List.filter keep r.Device.originated })
        net.Device.routers;
  }

(* --- one run ---------------------------------------------------------- *)

(* The two step lists merged in proportion, so that every metric samples
   the whole run rather than one stretch of it: host drift within a run
   then moves all of them alike. *)
let interleave lists =
  let place l =
    let n = float_of_int (List.length l) in
    List.mapi (fun i x -> ((float_of_int i +. 0.5) /. n, x)) l
  in
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    (List.concat_map place lists)
  |> List.map snd

let run workload ~seed ~tiny ~seconds ~trace =
  let sz = size workload ~tiny ~seconds in
  (* set-up is the pipeline's (parse, classes, universe) for dc-all and
     wan-all, the engine's (create, then a cold load that parses) for
     change-review *)
  let change_review = workload = Change_review in
  let rng = Random.State.make [| 0xb0a5; seed |] in
  let net =
    match (workload, tiny) with
    | Dc_all, _ -> (Synthesis.datacenter ()).Synthesis.net
    | Wan_all, _ -> (Synthesis.wan ()).Synthesis.net
    | Change_review, tiny -> fattree_with_ospf ~k:(if tiny then 4 else 12)
  in
  (* a class's group for sampling: the kind of router that originates it,
     its name without digits *)
  let group ec =
    Graph.name net.Device.graph (Ecs.single_origin ec)
    |> String.to_seq
    |> Seq.filter (fun c -> not (c >= '0' && c <= '9'))
    |> String.of_seq
  in
  let sample =
    let ecs = Pipeline.single_origin (Ecs.compute net) in
    if sz.classes = 0 then ecs
    else Pipeline.stratified ~rng ~n:sz.classes ~group ecs
  in
  (* fixed across seeds: the stream's work then varies only with its edits *)
  let stream_base =
    if sz.stream_classes = 0 then net
    else
      originating net
        (Pipeline.stratified ~n:sz.stream_classes ~group
           (Pipeline.single_origin (Ecs.compute net)))
  in
  let text = Config_text.print net in
  let host0 = ref_kernel_ms ~reps:3 in
  let gc0 = gc_mark () in
  let pt =
    Pipeline.prepare ~trace text ~pick:(fun ecs ->
        List.filter
          (fun ec ->
            List.exists (fun s -> Prefix.equal s.Ecs.ec_prefix ec.Ecs.ec_prefix) sample)
          ecs)
  in
  let stt =
    Stream.prepare ~blocks:sz.blocks ~mix:sz.mix ~rounds:sz.rounds ~trace rng
      stream_base
  in
  (* a step that raises is a failed operation, never a dropped one *)
  let raised = ref 0 in
  List.iter
    (fun step ->
      try step ()
      with e ->
        incr raised;
        prerr_endline ("perfbench: " ^ Printexc.to_string e))
    (interleave
       [
         Pipeline.steps pt ~passes:sz.passes;
         Stream.steps stt;
         Pipeline.setup_steps pt
           ~reps:(if change_review then 0 else sz.setup_reps - 1);
         Stream.setup_steps stt
           ~reps:(if change_review then sz.setup_reps - 1 else 0);
       ]);
  (* before the gate, whose mirror and from-scratch compression are the
     harness's work, not the program's *)
  let peak_mb = top_heap_mb () and gc_run = gc_metrics ~since:gc0 in
  let pl = Pipeline.finish pt in
  let st = Stream.finish stt in
  let host1 = ref_kernel_ms ~reps:3 in
  Printf.printf "host.ref_kernel_ms start %.2f end %.2f\n" (median host0)
    (median host1);
  let ms q xs = 1e3 *. quantile q xs in
  let metrics =
    if not trace then
      [
        metric "setup_s" "s"
          (if change_review then st.Stream.setup_s else pl.Pipeline.setup_s);
        metric "peak_heap_mb" "MB" peak_mb;
        metric "compress_s" "s" pl.Pipeline.compress_s;
        metric "class_p50_ms" "ms" (ms 0.5 pl.Pipeline.per_class_s);
        metric "class_p95_ms" "ms" (ms 0.95 pl.Pipeline.per_class_s);
        metric "certify_s" "s" pl.Pipeline.certify_s;
        metric "dp_check_s" "s" pl.Pipeline.dp_check_s;
        metric "abs_nodes_mean" "nodes" pl.Pipeline.abs_nodes_mean;
        metric "abs_links_mean" "links" pl.Pipeline.abs_links_mean;
        metric "review_p50_ms" "ms" (ms 0.5 st.Stream.review_s);
        metric "review_p95_ms" "ms" (ms 0.95 st.Stream.review_s);
        metric "commit_p50_ms" "ms" (ms 0.5 st.Stream.commit_s);
        metric "commit_p95_ms" "ms" (ms 0.95 st.Stream.commit_s);
        metric "requests_per_s" "1/s"
          (float_of_int
             (List.length st.Stream.review_s + List.length st.Stream.commit_s)
          /. st.Stream.handle_s);
      ]
    else begin
      let measured =
        pl.Pipeline.layers @ st.Stream.layers @ gc_run
        @ [ metric "host.ref_kernel_ms" "ms" (median (host0 @ host1)) ]
      in
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun m -> String.equal m.name name) measured with
          | Some m when String.equal m.unit unit -> m
          | _ -> failwith ("per-layer metric not measured: " ^ name))
        per_layer
    end
  in
  let attempted = pl.Pipeline.attempted + st.Stream.attempted + !raised in
  let failed = pl.Pipeline.failed + st.Stream.failed + !raised in
  Printf.printf "samples: %d class compressions, %d reviews, %d commits\n"
    (List.length pl.Pipeline.per_class_s)
    (List.length st.Stream.review_s)
    (List.length st.Stream.commit_s);
  print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  if failed > 0 then exit 1

let () =
  (* Fixed collector settings, so that OCAMLRUNPARAM cannot change what is
     measured: an 8 MB minor heap (1 Mwords; the default is 2 MB) and the
     default space overhead. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 120 };
  let workload = ref None and seed = ref 0 and seconds = ref 10 in
  let trace = ref 0 and tiny = ref false in
  let set_workload w =
    match List.assoc_opt w workloads with
    | Some x -> workload := Some x
    | None -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let set_size = function
    | "full" -> tiny := false
    | "tiny" -> tiny := true
    | s -> raise (Arg.Bad ("unknown size " ^ s))
  in
  Arg.parse
    [
      ("--workload", Arg.String set_workload, " dc-all | wan-all | change-review");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " scales the work of the run");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics instead of end-to-end");
      ("--size", Arg.String set_size, " full (default) | tiny (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  match !workload with
  | None ->
    prerr_endline "perfbench: --workload is required";
    exit 2
  | Some w -> run w ~seed:!seed ~tiny:!tiny ~seconds:!seconds ~trace:(!trace = 1)
