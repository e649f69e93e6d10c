(* Change review on a warm serve engine: a stream of single-edit candidate
   configurations, each reviewed, a fixed share of them committed.

   One closed-loop client calls [Serve_engine.handle_line] in-process (no
   sockets; the soak script covers the transport). The engine resolves
   network specs by parsing configuration text: "base" is the loaded
   network, "cand:<i>" the i-th candidate. Every candidate gets a
   read-only `dataplane-diff` review against the warm state; the
   committed ones are then applied with `diff`, which advances the warm
   state, so later candidates are edits of the committed network.

   The stream is made of blocks with a fixed mix of edit kinds, shuffled
   by the seed:
   - OSPF link-cost changes;
   - import route-map clears;
   - ACL tweaks: one deny rule for an address block no router
     originates, then permit everything — no class is affected;
   - ACL replacements: the same deny rule with the implicit deny after
     it, so the interface stops forwarding and every class through it
     is dirty.
   Fixed counts per block (not probabilities) keep the share of each kind
   exact, so a percentile never drifts across the boundary between cheap
   and dirty requests from one seed to the next.

   The whole stream is played [rounds] times, each round on a fresh
   engine that starts from a cold load of the base network, so every
   round sends the same requests to an engine in the same state. A
   request's latency is the fastest of its rounds: the rounds lie apart
   in the run, and the host this was tuned on runs the same work up to
   1.5 times slower for seconds to minutes at a time. *)

open Meter

type kind = Ospf_cost | Rm_clear | Acl_tweak | Acl_replace

type mix = (kind * int * int) list
(** per block: (kind, candidates, of which committed) *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* (kind, commit?) in request order. *)
let schedule rng ~blocks (mix : mix) =
  List.concat
    (List.init blocks (fun _ ->
         let b =
           Array.of_list
             (List.concat_map
                (fun (kind, n, committed) ->
                  List.init n (fun i -> (kind, i < committed)))
                mix)
         in
         shuffle rng b;
         Array.to_list b))

let edit rng (net : Device.network) kind =
  let g = net.Device.graph in
  let name = Graph.name g in
  let r = net.Device.routers in
  let pick p =
    let xs = List.filter p (Graph.edges g) in
    List.nth xs (Random.State.int rng (List.length xs))
  in
  match kind with
  | Ospf_cost ->
    let u, v =
      pick (fun (u, v) ->
          Option.is_some (Device.ospf_link_config r.(u) v)
          && Option.is_some (Device.ospf_link_config r.(v) u))
    in
    let cost =
      match Device.ospf_link_config r.(u) v with
      | Some l -> 1 + ((l.Device.cost + Random.State.int rng 8) mod 9)
      | None -> 1
    in
    Delta.Ospf_cost { node = name u; nbr = name v; cost }
  | Rm_clear ->
    let u, v =
      pick (fun (u, v) ->
          match Device.bgp_neighbor_config r.(u) v with
          | Some nb -> Option.is_some nb.Device.import_rm
          | None -> false)
    in
    Delta.Route_map_set
      { node = name u; nbr = name v; dir = Delta.Import; rm = None }
  | Acl_tweak | Acl_replace ->
    let u, v = pick (fun _ -> true) in
    let deny =
      Prefix.of_string
        (Printf.sprintf "10.255.%d.0/24" (Random.State.int rng 256))
    in
    let rest =
      match kind with
      | Acl_tweak -> [ { Acl.permit = true; prefix = Prefix.default } ]
      | _ -> []
    in
    Delta.Acl_set
      {
        node = name u;
        nbr = name v;
        acl = Some ({ Acl.permit = false; prefix = deny } :: rest);
      }

type candidate = { commit : bool; edit : Delta.t }

(* Generated before anything is timed: each candidate is one edit of the
   network as committed so far. Only the edits are kept; a candidate's
   configuration text is printed just before its requests and dropped
   after them, so the harness holds no more than one at a time. *)
let candidates rng ~blocks ~mix base =
  let plan = schedule rng ~blocks mix in
  let _, rev =
    List.fold_left
      (fun (cur, acc) (kind, commit) ->
        let e = edit rng cur kind in
        let c = { commit; edit = e } in
        ((if commit then Delta.apply cur [ e ] else cur), c :: acc))
      (base, []) plan
  in
  Array.of_list (List.rev rev)

let parse = Pipeline.parse

let response_ok resp =
  match Json.parse resp with
  | Ok j -> (
    match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false)
  | Error _ -> false

let request eng line = fst (Serve_engine.handle_line eng ~queue_depth:0 line)

(* --- the library calls of each request, replayed on a mirror ----------- *)

type mirror = {
  state : Incr.state;
  delta : span;
  recompress : span;
  dp_diff : span;
  mutable reused : int;
  mutable seeded : int;
  mutable scratch : int;
  mutable recompiled : int;
  mutable dp_reused : int;
}

let new_mirror base_text =
  {
    state =
      (match Incr.init (parse base_text) with
      | Ok st -> st
      | Error e -> Bonsai_error.error e);
    delta = span ();
    recompress = span ();
    dp_diff = span ();
    reused = 0;
    seeded = 0;
    scratch = 0;
    recompiled = 0;
    dp_reused = 0;
  }

let mirror_review m text =
  let old_net = Incr.network m.state in
  let new_net = parse text in
  let deltas = timed m.delta (fun () -> Delta.diff old_net new_net) in
  match
    timed m.dp_diff (fun () ->
        Dp_diff.run ~cache:(Incr.sig_cache m.state) ~old_net ~new_net deltas)
  with
  | Ok rep ->
    m.recompiled <- m.recompiled + rep.Dp_diff.dp_recompiled;
    m.dp_reused <- m.dp_reused + rep.Dp_diff.dp_reused
  | Error e -> Bonsai_error.error e

let mirror_commit m text =
  let new_net = parse text in
  match timed m.recompress (fun () -> Incr.recompress_net m.state new_net) with
  | Ok (_, rep) ->
    m.reused <- m.reused + rep.Incr.r_reused;
    m.seeded <- m.seeded + rep.Incr.r_seeded;
    m.scratch <- m.scratch + rep.Incr.r_scratch
  | Error e -> Bonsai_error.error e

(* --- the run ----------------------------------------------------------- *)

type t = {
  cands : candidate array;
  base : Device.network;
  base_text : string;
  mutable cur : Device.network;  (** the network as committed so far *)
  current : (int * string) option ref;  (** the candidate under review *)
  trace : bool;
  mutable eng : Serve_engine.t;
  load : unit -> Serve_engine.t * string;  (** engine create + cold load *)
  mutable setup_s : float list;
  mirror : mirror option;  (** traced run: replays every request of round 0 *)
  reviews : float array;  (** per candidate, fastest round *)
  commits : float array;  (** per candidate, fastest round; unused if not committed *)
  rounds : int;
  mutable self_ms : float list;
  mutable attempted : int;
  mutable failed : int;
}

let check t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let prepare ~blocks ~mix ~rounds ~trace rng base =
  let base_text = Config_text.print base in
  let cands = candidates rng ~blocks ~mix base in
  let current = ref None in
  let resolve spec =
    match (String.split_on_char ':' spec, !current) with
    | [ "base" ], _ -> parse base_text
    | [ "cand"; i ], Some (j, text) when int_of_string i = j -> parse text
    | _ -> failwith ("unknown network " ^ spec)
  in
  let load () =
    let eng = Serve_engine.create ~resolve () in
    (eng, request eng "{\"id\":0,\"op\":\"load\",\"network\":\"base\"}")
  in
  let (eng, resp), load_s = time load in
  let n = Array.length cands in
  let t =
    {
      cands;
      base;
      base_text;
      cur = base;
      current;
      trace;
      eng;
      load;
      setup_s = [ load_s ];
      mirror = (if trace then Some (new_mirror base_text) else None);
      reviews = Array.make n infinity;
      commits = Array.make n infinity;
      rounds;
      self_ms = [];
      attempted = 0;
      failed = 0;
    }
  in
  check t (response_ok resp);
  t

(* A fresh engine and a cold load: one more set-up sample. *)
let fresh_engine t =
  let (eng, resp), dt = time t.load in
  check t (response_ok resp);
  t.setup_s <- dt :: t.setup_s;
  eng

(* Set-ups for their time only. *)
let setup_steps t ~reps = List.init reps (fun _ () -> ignore (fresh_engine t))

let serve t line ~mirrored =
  let resp, dt = time (fun () -> request t.eng line) in
  check t (response_ok resp);
  Option.iter
    (fun replay ->
      let (), lib = time replay in
      t.self_ms <- (1e3 *. (dt -. lib)) :: t.self_ms)
    mirrored;
  dt

(* One candidate: its text, printed untimed; its review; then its commit
   if it is committed. Only round 0 is mirrored. *)
let candidate_step t ~round i c () =
  let mirror = if round = 0 then t.mirror else None in
  let next = Delta.apply t.cur [ c.edit ] in
  let text = Config_text.print next in
  t.current := Some (i, text);
  let line op =
    Printf.sprintf
      "{\"id\":%d,\"op\":%S,\"network\":\"base\",\"to\":\"cand:%d\"}"
      (i + 1) op i
  in
  let dt =
    serve t (line "dataplane-diff")
      ~mirrored:(Option.map (fun m () -> mirror_review m text) mirror)
  in
  t.reviews.(i) <- Float.min t.reviews.(i) dt;
  if c.commit then begin
    let dt =
      serve t (line "diff")
        ~mirrored:(Option.map (fun m () -> mirror_commit m text) mirror)
    in
    t.commits.(i) <- Float.min t.commits.(i) dt;
    t.cur <- next
  end;
  t.current := None

(* Every round after the first starts on a fresh engine. The old engine
   unloads first, so that two warm states never share the heap. *)
let steps t =
  List.concat
    (List.init t.rounds (fun round ->
         let restart () =
           check t
             (response_ok
                (request t.eng
                   "{\"id\":-2,\"op\":\"unload\",\"network\":\"base\"}"));
           t.eng <- fresh_engine t;
           t.cur <- t.base
         in
         (if round = 0 then [] else [ restart ])
         @ Array.to_list (Array.mapi (candidate_step t ~round) t.cands)))

type result = {
  setup_s : float;  (** median over the set-ups *)
  review_s : float list;  (** per candidate, fastest round *)
  commit_s : float list;  (** per committed candidate, fastest round *)
  handle_s : float;  (** sum of both *)
  attempted : int;
  failed : int;
  layers : metric list;  (** traced run only *)
}

(* Gate: the warm state equals a from-scratch compression of the final
   network. A mirror replays the committed edits through the same
   incremental engine (the traced run's mirror already has, request by
   request; otherwise it is built here, after the stream, so that it
   does not count in the run's peak heap); its role partitions must
   equal from-scratch ones, and the engine's own warm answer must agree
   on every class. *)
let finish t =
  let review_s = Array.to_list t.reviews in
  let commit_s =
    List.filteri (fun i _ -> t.cands.(i).commit) (Array.to_list t.commits)
  in
  let handle_s = sum review_s +. sum commit_s in
  let m =
    match t.mirror with
    | Some m -> m
    | None ->
      let m = new_mirror t.base_text in
      ignore
        (Array.fold_left
           (fun cur c ->
             if not c.commit then cur
             else
               let next = Delta.apply cur [ c.edit ] in
               mirror_commit m (Config_text.print next);
               next)
           (Incr.network m.state) t.cands);
      m
  in
  let final_net = Incr.network m.state in
  check t (Delta.diff final_net t.cur = []);
  let warm = (Incr.summary m.state).Bonsai_api.results in
  let scratch =
    let universe = Policy_bdd.universe_of_network final_net in
    List.map
      (fun ec -> Bonsai_api.compress_ec_exn ~universe final_net ec)
      (Pipeline.single_origin (Ecs.compute final_net))
  in
  check t (List.length warm = List.length scratch);
  if List.length warm = List.length scratch then
    List.iter2
      (fun (w : Bonsai_api.ec_result) (s : Bonsai_api.ec_result) ->
        check t
          (Prefix.equal w.Bonsai_api.ec.Ecs.ec_prefix
             s.Bonsai_api.ec.Ecs.ec_prefix
          && Pipeline.canonical w.Bonsai_api.abstraction.Abstraction.group_of
             = Pipeline.canonical s.Bonsai_api.abstraction.Abstraction.group_of))
      warm scratch;
  let row (r : Bonsai_api.ec_result) =
    let a = r.Bonsai_api.abstraction in
    ( Some (Format.asprintf "%a" Prefix.pp r.Bonsai_api.ec.Ecs.ec_prefix),
      Some (Abstraction.n_abstract a),
      Some (Graph.n_links a.Abstraction.abs_graph) )
  in
  let engine_row j =
    let field k f = Option.bind (Json.member k j) f in
    ( field "destination" Json.to_string_opt,
      field "abstract_nodes" Json.to_int_opt,
      field "abstract_links" Json.to_int_opt )
  in
  let engine_rows =
    match
      Json.parse
        (request t.eng "{\"id\":-1,\"op\":\"compress\",\"network\":\"base\"}")
    with
    | Ok j -> (
      match Json.member "classes" j with
      | Some (Json.List rows) -> List.map engine_row rows
      | _ -> [])
    | Error _ -> []
  in
  check t (List.map row scratch = engine_rows);
  let layers =
    if not t.trace then []
    else
      let ratio a b =
        if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)
      in
      let hits, misses = Incr.cache_stats m.state in
      let count name n = metric name "count" (float_of_int n) in
      [
        metric "delta.diff_s" "s" m.delta.busy_s;
        metric "incr.recompress_s" "s" m.recompress.busy_s;
        count "incr.reused" m.reused;
        count "incr.seeded" m.seeded;
        count "incr.scratch" m.scratch;
        metric "incr.reuse_ratio" "ratio" (ratio m.reused (m.seeded + m.scratch));
        metric "sig_cache.hit_ratio" "ratio" (ratio hits misses);
        metric "dp_diff.run_s" "s" m.dp_diff.busy_s;
        count "dp_diff.classes_recompiled" m.recompiled;
        count "dp_diff.classes_reused" m.dp_reused;
        metric "serve.handle_s" "s" handle_s;
        metric "serve.dispatch_self_ms" "ms" (median t.self_ms);
      ]
  in
  {
    setup_s = median t.setup_s;
    review_s;
    commit_s;
    handle_s;
    attempted = t.attempted;
    failed = t.failed;
    layers;
  }
