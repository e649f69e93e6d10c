(* Tests for the Bonsai core: refinement, abstraction construction, and the
   paper's worked examples (Figures 1, 2/3, 8, 11; Table 1 shapes). *)

let uniform_signature _ _ = 0
let no_prefs _ = []

(* Build a Device.network that only carries a topology (for protocol-level
   tests that bypass the configuration language). *)
let bare_net graph =
  {
    Device.graph;
    routers =
      Array.init (Graph.n_nodes graph) (fun v ->
          Device.default_router (Graph.name graph v));
  }

let compress_bare ?(signature = uniform_signature) ?(prefs = no_prefs) graph
    ~dest =
  let net = bare_net graph in
  let partition, _ = Refine.find_partition net ~dest ~signature ~prefs in
  let universe = Policy_bdd.universe_of_network net in
  Abstraction.make net ~dest ~dest_prefix:(Prefix.of_string "10.0.0.0/24")
    ~universe ~partition
    ~copies:(fun m -> List.length (prefs m))

(* --- Figure 1: the RIP example ------------------------------------- *)

let figure1_graph () =
  (* a -- b1 -- d, a -- b2 -- d *)
  Graph.of_links ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_figure1_compression () =
  let g = figure1_graph () in
  let t = compress_bare g ~dest:3 in
  Alcotest.(check int) "abstract nodes" 3 (Abstraction.n_abstract t);
  (* b1 and b2 share a group *)
  Alcotest.(check bool) "b1 ~ b2" true
    (t.Abstraction.group_of.(1) = t.Abstraction.group_of.(2));
  Alcotest.(check bool) "a alone" true
    (t.Abstraction.group_of.(0) <> t.Abstraction.group_of.(1))

let test_figure1_rip_equivalence () =
  let g = figure1_graph () in
  let t = compress_bare g ~dest:3 in
  let srp = Rip.make g ~dest:3 in
  let sol = Solver.solve_exn srp in
  (* concrete solution: d=0, b=1, a=2 (Figure 1b) *)
  Alcotest.(check (option int)) "d" (Some 0) (Solution.label sol 3);
  Alcotest.(check (option int)) "b1" (Some 1) (Solution.label sol 1);
  Alcotest.(check (option int)) "a" (Some 2) (Solution.label sol 0);
  let abs_srp = Rip.make t.Abstraction.abs_graph ~dest:t.Abstraction.abs_dest in
  let outcome, abs_sol = Equivalence.check_plain ~abs_srp t sol in
  Alcotest.(check bool)
    (String.concat "; " outcome.Equivalence.errors)
    true outcome.Equivalence.ok;
  match abs_sol with
  | None -> Alcotest.fail "no abstract solution constructed"
  | Some abs_sol ->
    Alcotest.(check (option int)) "abstract b label" (Some 1)
      (Solution.label abs_sol (Abstraction.f t 1))

(* --- Figure 8: forall-exists validity ------------------------------ *)

let test_forall_exists_splits_partial_neighbor () =
  (* d -- b -- a1, d -- c, c has no edge to any a: grouping {b, c} violates
     forall-exists once {a1, a2} is abstract; the algorithm must separate b
     from c. Topology: d(0) - b(1), d(0) - c(2), b(1) - a1(3), b(1) - a2(4). *)
  let g = Graph.of_links ~n:5 [ (0, 1); (0, 2); (1, 3); (1, 4) ] in
  let t = compress_bare g ~dest:0 in
  Alcotest.(check bool) "b and c split" true
    (t.Abstraction.group_of.(1) <> t.Abstraction.group_of.(2));
  (* a1 and a2 are symmetric leaves of b: they merge *)
  Alcotest.(check bool) "a1 ~ a2" true
    (t.Abstraction.group_of.(3) = t.Abstraction.group_of.(4))

(* --- forall-exists condition check on the result -------------------- *)

let test_check_passes_on_refined () =
  let g = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path g in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let _, signature =
    Compile.edge_signatures
      ~universe:r.Bonsai_api.abstraction.Abstraction.universe net
      ~dest:ec.Ecs.ec_prefix
  in
  let violations = Check.check r.Bonsai_api.abstraction ~signature in
  Alcotest.(check int)
    (String.concat "; "
       (List.map (Format.asprintf "%a" Check.pp_violation) violations))
    0 (List.length violations)

(* --- Table 1 shapes -------------------------------------------------- *)

let test_fattree_compresses_to_six () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_shortest_path ft in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  Alcotest.(check int) "abstract nodes" 6
    (Abstraction.n_abstract r.Bonsai_api.abstraction);
  Alcotest.(check int) "abstract links" 5
    (Graph.n_links r.Bonsai_api.abstraction.Abstraction.abs_graph)

let test_mesh_compresses_to_two () =
  let net = Synthesis.mesh_bgp ~n:10 in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  Alcotest.(check int) "abstract nodes" 2
    (Abstraction.n_abstract r.Bonsai_api.abstraction);
  Alcotest.(check int) "abstract links" 1
    (Graph.n_links r.Bonsai_api.abstraction.Abstraction.abs_graph)

let test_ring_compresses_to_half () =
  let net = Synthesis.ring_bgp ~n:10 in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  (* distances 0..5 with pairs merged: 6 abstract nodes for n=10 *)
  Alcotest.(check int) "abstract nodes" 6
    (Abstraction.n_abstract r.Bonsai_api.abstraction)

(* --- Figure 2/3: the BGP loop-prevention gadget ---------------------- *)

let gadget_net () =
  (* d(0) -- b1(1), b2(2), b3(3); a(4) -- each b. The b's prefer routes
     learned from a (local-preference 200 on import from a). *)
  let g =
    Graph.of_links ~n:5 [ (0, 1); (0, 2); (0, 3); (4, 1); (4, 2); (4, 3) ]
  in
  let prefer_a : Route_map.t =
    [ { verdict = Permit; conds = []; actions = [ Set_local_pref 200 ] } ]
  in
  let routers =
    Array.init 5 (fun v ->
        let r = Device.default_router (Graph.name g v) in
        let r =
          {
            r with
            Device.bgp_neighbors =
              Array.to_list (Graph.succ g v)
              |> List.map (fun u ->
                     let import_rm =
                       if v >= 1 && v <= 3 && u = 4 then Some prefer_a else None
                     in
                     (u, { Device.import_rm; export_rm = None; ibgp = false; rel = Device.Rel_unknown }));
          }
        in
        if v = 0 then
          { r with Device.originated = [ Prefix.of_string "10.0.0.0/24" ] }
        else r)
  in
  { Device.graph = g; routers }

let test_gadget_prefs_split () =
  let net = gadget_net () in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  (* groups: {d}, {b1,b2,b3} with 2 copies, {a} -> 4 abstract nodes *)
  Alcotest.(check int) "abstract nodes" 4 (Abstraction.n_abstract t);
  let bgroup = t.Abstraction.group_of.(1) in
  Alcotest.(check int) "b copies" 2 t.Abstraction.copies.(bgroup);
  Alcotest.(check (list int)) "b members" [ 1; 2; 3 ]
    t.Abstraction.groups.(bgroup)

let test_gadget_equivalence () =
  let net = gadget_net () in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  (* multiple stable solutions exist; every one must map to the abstraction *)
  let sols = Solver.solutions_sample ~tries:8 srp in
  Alcotest.(check bool) "found solutions" true (List.length sols >= 1);
  List.iter
    (fun sol ->
      let outcome, _ = Equivalence.check_bgp t sol in
      Alcotest.(check bool)
        (String.concat "; " outcome.Equivalence.errors)
        true outcome.Equivalence.ok)
    sols

let test_gadget_exhaustive_bisimulation () =
  (* Both directions of CP-equivalence, checked exhaustively on the
     gadget: every concrete stable solution maps into the abstraction
     (Theorem 4.5, forward), and every abstract stable solution is the
     image of some concrete one (reverse — no false positives). Abstract
     solutions are compared up to permutation of a group's copies. *)
  let net = gadget_net () in
  let ec = List.hd (Ecs.compute net) in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  let concrete_sols = Solver.enumerate_solutions srp in
  Alcotest.(check int) "three concrete solutions" 3 (List.length concrete_sols);
  let abs_srp = Abstraction.bgp_srp t in
  let abs_sols = Solver.enumerate_solutions abs_srp in
  Alcotest.(check bool) "abstract solutions exist" true (abs_sols <> []);
  let project (sol : Bgp.attr Solution.t) =
    (* compare up to copy permutation: node ids inside AS paths are
       canonicalized to their group ids *)
    let canon (attr : Bgp.attr) =
      { attr with Bgp.path = List.map (fun a -> t.Abstraction.group_of_abs.(a)) attr.Bgp.path }
    in
    List.init (Abstraction.n_abstract t) (fun a ->
        (t.Abstraction.group_of_abs.(a), Option.map canon (Solution.label sol a)))
    |> List.sort compare
  in
  let constructed =
    List.filter_map
      (fun sol ->
        let outcome, abs = Equivalence.check_bgp t sol in
        if outcome.Equivalence.ok then Option.map project abs else None)
      concrete_sols
  in
  Alcotest.(check int) "all concrete solutions map" 3 (List.length constructed);
  List.iter
    (fun abs_sol ->
      Alcotest.(check bool) "abstract solution realized concretely" true
        (List.mem (project abs_sol) constructed))
    abs_sols

let test_gadget_naive_abstraction_unsound () =
  (* Collapsing b1,b2,b3 into a single abstract node (Figure 2b) cannot
     map the concrete solution: the construction needs 2 behaviors. *)
  let net = gadget_net () in
  let ec = List.hd (Ecs.compute net) in
  let _, signature = Compile.edge_signatures net ~dest:ec.Ecs.ec_prefix in
  let partition, _ =
    (* lying about prefs: no splitting *)
    Refine.find_partition net ~dest:0 ~signature ~prefs:(fun _ -> [])
  in
  let universe = Policy_bdd.universe_of_network net in
  let t =
    Abstraction.make net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix ~universe
      ~partition ~copies:(fun _ -> 1)
  in
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  let sol = Solver.solve_exn srp in
  let outcome, _ = Equivalence.check_bgp t sol in
  Alcotest.(check bool) "naive abstraction rejected" false
    outcome.Equivalence.ok

(* --- Figure 13 / Theorem 4.4: the behavior bound ---------------------- *)

let three_level_gadget () =
  (* d(0) -- b1(1), b2(2), b3(3); a1(4) and a2(5) -- each b. The b's
     prefer a2's routes (lp 300) over a1's (lp 200) over direct (100):
     prefs(b) = {100, 200, 300}, so the b group gets three copies, and no
     stable solution may exhibit more than three behaviors. *)
  let g =
    Graph.of_links ~n:6
      [ (0, 1); (0, 2); (0, 3); (4, 1); (4, 2); (4, 3); (5, 1); (5, 2); (5, 3) ]
  in
  let pref lp : Route_map.t =
    [ { verdict = Permit; conds = []; actions = [ Set_local_pref lp ] } ]
  in
  let routers =
    Array.init 6 (fun v ->
        let r = Device.default_router (Graph.name g v) in
        let r =
          {
            r with
            Device.bgp_neighbors =
              Array.to_list (Graph.succ g v)
              |> List.map (fun u ->
                     let import_rm =
                       if v >= 1 && v <= 3 && u = 4 then Some (pref 200)
                       else if v >= 1 && v <= 3 && u = 5 then Some (pref 300)
                       else None
                     in
                     (u, { Device.import_rm; export_rm = None; ibgp = false; rel = Device.Rel_unknown }));
          }
        in
        if v = 0 then
          { r with Device.originated = [ Prefix.of_string "10.0.0.0/24" ] }
        else r)
  in
  { Device.graph = g; routers }

let test_three_level_split_and_bound () =
  let net = three_level_gadget () in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  let bgroup = t.Abstraction.group_of.(1) in
  Alcotest.(check int) "three copies (|prefs| = 3)" 3
    t.Abstraction.copies.(bgroup);
  (* every reachable stable solution maps into the abstraction, i.e. has
     at most |prefs| behaviors (Theorem 4.4) *)
  let srp = Compile.bgp_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  let sols = Solver.solutions_sample ~tries:16 srp in
  Alcotest.(check bool) "solutions found" true (sols <> []);
  List.iter
    (fun sol ->
      let outcome, _ = Equivalence.check_bgp t sol in
      Alcotest.(check bool)
        (String.concat "; " outcome.Equivalence.errors)
        true outcome.Equivalence.ok)
    sols

(* --- iBGP neighbors compress together (paper section 6) --------------- *)

let test_ibgp_pair_merges () =
  (* d(0) -(ebgp)- r1(1), r2(2); r1 -(ibgp)- r2; x(3) -(ebgp)- r1, r2.
     The iBGP pair has identical configurations and must merge; the edge
     between them is never used (no re-advertisement over iBGP). *)
  let g = Graph.of_links ~n:4 [ (0, 1); (0, 2); (1, 2); (3, 1); (3, 2) ] in
  let routers =
    Array.init 4 (fun v ->
        let r = Device.default_router (Graph.name g v) in
        let r =
          {
            r with
            Device.bgp_neighbors =
              Array.to_list (Graph.succ g v)
              |> List.map (fun u ->
                     let ibgp = (v = 1 && u = 2) || (v = 2 && u = 1) in
                     ( u,
                       {
                         Device.import_rm = None;
                         export_rm = None;
                         ibgp;
                         rel = Device.Rel_unknown;
                       } ));
          }
        in
        if v = 0 then
          { r with Device.originated = [ Prefix.of_string "10.0.0.0/24" ] }
        else r)
  in
  let net = { Device.graph = g; routers } in
  let ec = List.hd (Ecs.compute net) in
  let r = Bonsai_api.compress_ec_exn net ec in
  let t = r.Bonsai_api.abstraction in
  Alcotest.(check bool) "r1 ~ r2" true
    (t.Abstraction.group_of.(1) = t.Abstraction.group_of.(2));
  Alcotest.(check int) "3 abstract nodes" 3 (Abstraction.n_abstract t);
  (* and the multi-protocol solution maps *)
  let srp = Compile.multi_srp net ~dest:0 ~dest_prefix:ec.Ecs.ec_prefix in
  let sol = Solver.solve_exn srp in
  let outcome, _ = Equivalence.check_multi t sol in
  Alcotest.(check bool)
    (String.concat "; " outcome.Equivalence.errors)
    true outcome.Equivalence.ok

(* --- Figure 11: policy changes the abstraction size ------------------ *)

let test_figure11_prefer_bottom_is_bigger () =
  let ft = Generators.fattree ~k:4 in
  let shortest = Synthesis.fattree_shortest_path ft in
  let prefer = Synthesis.fattree_prefer_bottom ft in
  let size net =
    let ec = List.hd (Ecs.compute net) in
    let r = Bonsai_api.compress_ec_exn net ec in
    Abstraction.n_abstract r.Bonsai_api.abstraction
  in
  let s1 = size shortest and s2 = size prefer in
  Alcotest.(check bool)
    (Printf.sprintf "prefer-bottom (%d) > shortest-path (%d)" s2 s1)
    true (s2 > s1)

(* --- abstraction accessors --------------------------------------------- *)

let test_abstraction_accessors () =
  let net = Synthesis.fattree_shortest_path (Generators.fattree ~k:4) in
  let ec = List.hd (Ecs.compute net) in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  (* f is onto the abstract node set for single-copy groups *)
  let hit = Array.make (Abstraction.n_abstract t) false in
  for u = 0 to Graph.n_nodes net.Device.graph - 1 do
    hit.(Abstraction.f t u) <- true
  done;
  Array.iteri
    (fun a h ->
      if t.Abstraction.copies.(t.Abstraction.group_of_abs.(a)) = 1 then
        Alcotest.(check bool) (Printf.sprintf "abstract %d covered" a) true h)
    hit;
  (* repr is a member of its group *)
  for a = 0 to Abstraction.n_abstract t - 1 do
    Alcotest.(check bool) "repr in members" true
      (List.mem (Abstraction.repr_of_abs t a) (Abstraction.members_of_abs t a))
  done;
  (* repr_edge returns genuine concrete edges mapping to the abstract one *)
  Graph.iter_edges t.Abstraction.abs_graph (fun a b ->
      let u, v = Abstraction.repr_edge t a b in
      Alcotest.(check bool) "concrete edge" true
        (Graph.has_edge net.Device.graph u v);
      Alcotest.(check int) "u in group a" t.Abstraction.group_of_abs.(a)
        t.Abstraction.group_of.(u);
      Alcotest.(check int) "v in group b" t.Abstraction.group_of_abs.(b)
        t.Abstraction.group_of.(v));
  (* compression ratio consistent with sizes *)
  let rn, _ = Abstraction.compression_ratio t in
  Alcotest.(check (float 0.001)) "node ratio"
    (float_of_int (Graph.n_nodes net.Device.graph)
    /. float_of_int (Abstraction.n_abstract t))
    rn

let test_h_attr_erasure () =
  let net = (Synthesis.datacenter ()).Synthesis.net in
  let ec = List.hd (Ecs.compute net) in
  let t = (Bonsai_api.compress_ec_exn net ec).Bonsai_api.abstraction in
  (* community 1000 is attached by a leaf but matched nowhere: erased *)
  let a = { Bgp.init with Bgp.comms = [ 1000 ]; path = [ 3; 1 ] } in
  let h = Abstraction.h_attr t ~fr:(fun v -> v * 10) a in
  Alcotest.(check (list int)) "unused comm erased" [] h.Bgp.comms;
  Alcotest.(check (list int)) "path mapped" [ 30; 10 ] h.Bgp.path

(* --- roles (paper section 8) ----------------------------------------- *)

let test_datacenter_roles () =
  let dc = Synthesis.datacenter () in
  let semantic = Bonsai_api.roles dc.Synthesis.net in
  let naive = Bonsai_api.roles ~keep_unmatched_comms:true dc.Synthesis.net in
  Alcotest.(check int) "semantic roles" 26 semantic;
  Alcotest.(check int) "naive roles" 112 naive

(* --- explain ------------------------------------------------------------ *)

let test_explain () =
  let ft = Generators.fattree ~k:4 in
  let net = Synthesis.fattree_prefer_bottom ft in
  let ec = List.hd (Ecs.compute net) in
  (* same role: nothing to explain *)
  Alcotest.(check (list string)) "same role" []
    (Bonsai_api.explain net ec ft.Generators.ft_edge.(2) ft.Generators.ft_edge.(3));
  (* different roles: at least one reason, mentioning the preference gap *)
  let reasons =
    Bonsai_api.explain net ec ft.Generators.ft_agg.(0) ft.Generators.ft_edge.(2)
  in
  Alcotest.(check bool) "has reasons" true (reasons <> []);
  Alcotest.(check bool) "mentions local preferences" true
    (List.exists
       (fun r -> Astring_contains.contains r "local preferences")
       reasons)

let () =
  Alcotest.run "bonsai-core"
    [
      ( "figure1",
        [
          Alcotest.test_case "compression" `Quick test_figure1_compression;
          Alcotest.test_case "rip equivalence" `Quick
            test_figure1_rip_equivalence;
        ] );
      ( "topology-abstraction",
        [
          Alcotest.test_case "forall-exists split" `Quick
            test_forall_exists_splits_partial_neighbor;
          Alcotest.test_case "conditions hold" `Quick
            test_check_passes_on_refined;
        ] );
      ( "table1-shapes",
        [
          Alcotest.test_case "fattree -> 6" `Quick test_fattree_compresses_to_six;
          Alcotest.test_case "mesh -> 2" `Quick test_mesh_compresses_to_two;
          Alcotest.test_case "ring -> n/2+1" `Quick test_ring_compresses_to_half;
        ] );
      ( "bgp-gadget",
        [
          Alcotest.test_case "prefs split" `Quick test_gadget_prefs_split;
          Alcotest.test_case "equivalence" `Quick test_gadget_equivalence;
          Alcotest.test_case "exhaustive bisimulation" `Quick
            test_gadget_exhaustive_bisimulation;
          Alcotest.test_case "naive unsound" `Quick
            test_gadget_naive_abstraction_unsound;
        ] );
      ( "theorem-4.4",
        [
          Alcotest.test_case "three-level bound" `Quick
            test_three_level_split_and_bound;
        ] );
      ( "ibgp",
        [ Alcotest.test_case "pair merges" `Quick test_ibgp_pair_merges ] );
      ( "figure11",
        [
          Alcotest.test_case "prefer-bottom bigger" `Quick
            test_figure11_prefer_bottom_is_bigger;
        ] );
      ( "abstraction",
        [
          Alcotest.test_case "accessors" `Quick test_abstraction_accessors;
          Alcotest.test_case "h erasure" `Quick test_h_attr_erasure;
        ] );
      ( "explain",
        [ Alcotest.test_case "role differences" `Quick test_explain ] );
      ( "roles",
        [ Alcotest.test_case "datacenter 26/112" `Quick test_datacenter_roles ]
      );
    ]
