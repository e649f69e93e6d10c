(* The op layer shared by `bonsai OP` and `bonsai serve`.

   Each op that both frontends answer (Op_compress, Op_lint, Op_flow,
   Op_diff, Op_dataplane_diff, Op_faults, Op_harden, Op_modular) has a
   params record, one [run] returning [(result, Bonsai_error.t) result],
   one [to_json] and one text [pp]. The CLI renders [pp] or
   [Json.to_string (to_json r)]; serve wraps the same [to_json] in its
   id/op/ok envelope — so `bonsai OP --format json` is the serve op's
   result. A [run] raises [Failure] only for a request error (an unknown
   destination class, say), which the CLI reports as misuse and serve as
   bad-request. This module holds the pieces more than one op needs. *)

(* A network spec the resolver does not know: a usage error, not one of
   the typed pipeline failures. *)
exception Usage of string

(* Resolves a network spec; [file:PATH] networks additionally carry a
   source location table for file:line diagnostics. Raises
   [Bonsai_error.Error (Parse_error _)] for an unparsable file and
   [Usage] for an unknown spec. *)
let resolve_full spec =
  let fail () =
    raise
      (Usage
         (Printf.sprintf
            "unknown network %S (expected fattree:K, fattree-prefer:K, \
             ring:N, mesh:N, random:N[:SEED], multiwan:R:S, datacenter, \
             wan, file:PATH)"
            spec))
  in
  let int s k = match int_of_string_opt s with Some n -> k n | None -> fail () in
  let pure net = (net, None) in
  match String.split_on_char ':' spec with
  | "file" :: rest -> (
    match Config_text.load_full (String.concat ":" rest) with
    | Ok (net, locs) -> (net, Some locs)
    | Error ds ->
      Bonsai_error.error (Bonsai_error.Parse_error { diagnostics = ds }))
  | [ "datacenter" ] -> pure (Synthesis.datacenter ()).Synthesis.net
  | [ "wan" ] -> pure (Synthesis.wan ()).Synthesis.net
  | [ "fattree"; k ] ->
    int k (fun k -> pure (Synthesis.fattree_shortest_path (Generators.fattree ~k)))
  | [ "fattree-prefer"; k ] ->
    int k (fun k -> pure (Synthesis.fattree_prefer_bottom (Generators.fattree ~k)))
  | [ "ring"; n ] -> int n (fun n -> pure (Synthesis.ring_bgp ~n))
  | [ "mesh"; n ] -> int n (fun n -> pure (Synthesis.mesh_bgp ~n))
  | [ "multiwan"; r; s ] ->
    (* R regions of S routers each, module-annotated (plus a core
       module) — the modular-compression workload at any scale. *)
    int r (fun regions ->
        int s (fun region_size ->
            pure (Synthesis.multiwan ~regions ~region_size).Synthesis.net))
  | [ "random"; n ] -> int n (fun n -> pure (Synthesis.random_network ~n ~seed:0))
  | [ "random"; n; s ] ->
    let seed = Option.value ~default:0 (int_of_string_opt s) in
    int n (fun n -> pure (Synthesis.random_network ~n ~seed))
  | _ -> fail ()

let resolve spec = fst (resolve_full spec)

(* The class [p] names among [ecs], or the first one. *)
let select_ec ecs = function
  | None -> (
    match ecs with
    | ec :: _ -> ec
    | [] -> failwith "network originates no destination prefixes")
  | Some p -> (
    let p = Prefix.of_string p in
    match List.find_opt (fun ec -> Prefix.equal ec.Ecs.ec_prefix p) ecs with
    | Some ec -> ec
    | None -> Format.kasprintf failwith "no destination class %a" Prefix.pp p)

let find_ec net p = select_ec (Ecs.compute net) p

(* The warm result for [ec], when the caller holds a compressed summary. *)
let warm_result (s : Bonsai_api.summary) (ec : Ecs.ec) =
  List.find_opt
    (fun (r : Bonsai_api.ec_result) ->
      Prefix.equal r.Bonsai_api.ec.Ecs.ec_prefix ec.Ecs.ec_prefix)
    s.Bonsai_api.results

(* The degrade decision: a result some of whose classes fell back to
   identity is accepted only when the caller opted into degradation.
   The CLI turns the error into its exit code (after printing the
   result), serve into a typed budget-exceeded response. *)
let gate ~degrade = function
  | Some (d : Bonsai_api.degradation) when not degrade ->
    Error (Bonsai_error.Budget_exceeded d.Bonsai_api.deg_info)
  | _ -> Ok ()

(* Runs an op body, turning the typed failures it raises into [Error];
   [Failure] (a request error) propagates. *)
let catch f =
  match f () with
  | r -> Ok r
  | exception Bonsai_error.Error e -> Error e
  | exception Budget.Exhausted info -> Error (Bonsai_error.Budget_exceeded info)

let ok_exn = function Ok x -> x | Error e -> Bonsai_error.error e

(* --- JSON fragments ---------------------------------------------------- *)

let str s = Json.String s
let prefix p = Json.String (Format.asprintf "%a" Prefix.pp p)
let list f xs = Json.List (List.map f xs)
let names_json names us = list (fun u -> str (names u)) us
let deltas_json ds = list (fun d -> str (Delta.to_string d)) ds

let degradation_json = function
  | None -> Json.Null
  | Some (d : Bonsai_api.degradation) ->
    Json.Obj
      [
        ("completed", Json.Int d.Bonsai_api.deg_completed);
        ("total", Json.Int d.Bonsai_api.deg_total);
      ]

let scenario_json ~names (sc : Scenario.t) =
  Json.List
    (List.map
       (fun (u, v) -> str (Printf.sprintf "%s-%s" (names u) (names v)))
       sc.Scenario.down_links
    @ List.map (fun u -> str ("node:" ^ names u)) sc.Scenario.down_nodes)

(* One diagnostic; [clause] is 1-based, as in its message and text. *)
let diag_json (d : Diag.t) =
  let opt f k = function None -> [] | Some v -> [ (k, f v) ] in
  let l = d.Diag.loc in
  Json.Obj
    (("check", str d.Diag.check)
    :: ("severity", str (Diag.severity_to_string d.Diag.severity))
    :: (opt str "router" l.Diag.router
       @ opt str "neighbor" l.Diag.neighbor
       @ opt str "route_map" l.Diag.rm_name
       @ opt (fun i -> Json.Int (i + 1)) "clause" l.Diag.clause
       @ opt (fun n -> Json.Int n) "line" l.Diag.line
       @ [ ("message", str d.Diag.message) ]))

let plural n = if n = 1 then "" else "s"

(* how a scenario plan was drawn *)
let mode exhaustive = if exhaustive then "exhaustive" else "sampled"
