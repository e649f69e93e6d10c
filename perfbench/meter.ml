(* Clocks, span accumulators, order statistics and the result line.

   Every timing in the benchmark goes through [now] (CLOCK_MONOTONIC, so an
   NTP step cannot produce a negative or inflated interval). A [span]
   accumulates busy time, minor-heap words and entries for one layer
   boundary; the traced run wraps calls into a layer's public functions
   with [timed]. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type span = { mutable busy_s : float; mutable words : float; mutable calls : int }

let span () = { busy_s = 0.0; words = 0.0; calls = 0 }

let timed sp f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  sp.busy_s <- sp.busy_s +. (now () -. t0);
  sp.words <- sp.words +. (Gc.minor_words () -. w0);
  sp.calls <- sp.calls + 1;
  r

let mwords sp = sp.words /. 1e6

(* Linear interpolation between closest ranks (R type 7). *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* --- the result ------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.9g" v
  else "0"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (number m.value) m.unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

(* --- host drift probe ------------------------------------------------- *)

(* A fixed, allocation-heavy kernel: build, sort and fold a list of boxed
   pairs, five times over. Its time tracks what the host gives this
   process at the moment; it is reported next to the metrics and never
   used to scale them. The live set stays small (about 1 MB), so it does
   not set the peak heap. *)
let ref_kernel () =
  let round r =
    let xs = List.init 20_000 (fun i -> ((i * 7919 + r) mod 20_011, float_of_int i)) in
    let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) xs in
    List.fold_left (fun acc (k, v) -> acc +. v +. float_of_int k) 0.0 sorted
  in
  List.fold_left (fun acc r -> acc +. round r) 0.0 (List.init 5 Fun.id)

let ref_kernel_ms ~reps =
  List.init reps (fun _ ->
      let _, dt = time (fun () -> Sys.opaque_identity (ref_kernel ())) in
      dt *. 1e3)

(* --- the OCaml runtime ----------------------------------------------- *)

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let top_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let gc_metrics ~since =
  let now = gc_mark () in
  [
    metric "gc.minor_mw" "Mwords" ((now.minor_words -. since.minor_words) /. 1e6);
    metric "gc.major_collections" "count"
      (float_of_int (now.major_collections - since.major_collections));
    metric "gc.top_heap_mb" "MB" (top_heap_mb ());
  ]
