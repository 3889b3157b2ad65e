(* Tests for dfr_core: state space, BWG, classification, reduction,
   baselines and the Theorem 1-3 checker. *)

open Dfr_topology
open Dfr_network
open Dfr_routing
open Dfr_core

let check = Alcotest.check

let cube2 = Net.wormhole (Topology.hypercube 2) ~vcs:2
let cube3 = Net.wormhole (Topology.hypercube 3) ~vcs:2
let mesh33_1 = Net.wormhole (Topology.mesh [| 3; 3 |]) ~vcs:1
let saf33 = Net.store_and_forward (Topology.mesh [| 3; 3 |]) ~classes:2
let chan net src dim dir vc = Buf.id (Net.channel net ~src ~dim ~dir ~vc)

let deadlock_free v = Checker.is_deadlock_free v

(* ---------------- state space ---------------- *)

let test_space_reachability_ecube () =
  let space = State_space.build cube2 Hypercube_wormhole.ecube in
  (* B2 channels never used by ecube *)
  let b2 = chan cube2 0 0 Topology.Plus 1 in
  let reachable_any = ref false in
  for dest = 0 to 3 do
    if State_space.is_reachable space ~buf:b2 ~dest then reachable_any := true
  done;
  check Alcotest.bool "B2 unreachable under ecube" false !reachable_any;
  (* the dim-1 B1 channel out of node 0 is reachable only for dests above *)
  let b1d1 = chan cube2 0 1 Topology.Plus 0 in
  check Alcotest.bool "reachable for dest 2" true
    (State_space.is_reachable space ~buf:b1d1 ~dest:2);
  check Alcotest.bool "not for dest 1" false
    (State_space.is_reachable space ~buf:b1d1 ~dest:1)

let test_space_input_dependence () =
  (* ecube: a packet that corrected dim 0 and sits in the dim-0 channel
     into node 1 can only continue upward *)
  let space = State_space.build cube2 Hypercube_wormhole.ecube in
  let b = chan cube2 0 0 Topology.Plus 0 in
  check (Alcotest.list Alcotest.int) "continues dim 1"
    [ chan cube2 1 1 Topology.Plus 0 ]
    (Slice_lists.outputs space ~buf:b ~dest:3);
  check (Alcotest.list Alcotest.int) "arrived: no outputs" []
    (Slice_lists.outputs space ~buf:b ~dest:1)

let test_space_arrived () =
  let space = State_space.build cube2 Hypercube_wormhole.efa in
  let b = chan cube2 0 0 Topology.Plus 0 in
  check Alcotest.bool "arrived at 1" true (State_space.arrived space ~buf:b ~dest:1);
  check Alcotest.bool "not arrived at 3" false (State_space.arrived space ~buf:b ~dest:3)

let test_space_no_stuck_states () =
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      let space = State_space.build net e.Registry.algo in
      check Alcotest.int (e.Registry.name ^ " no dead ends") 0
        (List.length (State_space.stuck_states space)))
    Registry.all

(* Every destination's move graph, mapped back through [view_bufs], is
   exactly {(buf, o) | o in outputs buf} over its reachable states, with
   strictly ascending rows. *)
let check_move_graphs label space =
  let module Csr = Dfr_graph.Csr in
  for dest = 0 to State_space.num_nodes space - 1 do
    let v = State_space.dest_view space ~dest in
    let bufs = v.State_space.view_bufs and g = v.State_space.view_moves in
    let label = Printf.sprintf "%s dest %d" label dest in
    check Alcotest.int (label ^ ": one vertex per state") (Array.length bufs)
      (Csr.num_vertices g);
    let rec ascending = function
      | a :: (b :: _ as rest) -> a < b && ascending rest
      | _ -> true
    in
    Array.iteri
      (fun i buf ->
        let lo, hi = Csr.row g i in
        let row = List.init (hi - lo) (fun j -> Csr.target g (lo + j)) in
        check Alcotest.bool (label ^ ": row strictly ascending") true (ascending row);
        check
          Alcotest.(list int)
          (label ^ ": moves = outputs")
          (List.sort_uniq compare (Slice_lists.outputs space ~buf ~dest))
          (List.map (fun j -> bufs.(j)) row))
      bufs
  done

(* the two spaces hold the same states and move graphs *)
let check_same_graphs label a b =
  for dest = 0 to State_space.num_nodes a - 1 do
    let va = State_space.dest_view a ~dest and vb = State_space.dest_view b ~dest in
    check Alcotest.(array int) (label ^ ": states") va.State_space.view_bufs
      vb.State_space.view_bufs;
    check Alcotest.bool (label ^ ": move graph") true
      (Dfr_graph.Csr.equal va.State_space.view_moves vb.State_space.view_moves)
  done

(* a state of [c] with two or more route outputs toward some destination *)
let branching_state (c : Dfr_fuzz.Case.t) =
  List.find_map
    (fun s ->
      List.find_map
        (fun dest ->
          match Dfr_fuzz.Case.route_of c s dest with
          | out :: _ :: _ -> Some (s, dest, out)
          | _ -> None)
        (List.init c.Dfr_fuzz.Case.num_nodes Fun.id))
    (Dfr_fuzz.Case.states c)

let test_move_graph_matches_outputs () =
  Dfr_util.Domain_pool.set_cap (Some 4);
  Fun.protect ~finally:(fun () -> Dfr_util.Domain_pool.set_cap None) @@ fun () ->
  let both label net algo =
    let serial = State_space.build net algo in
    check_move_graphs label serial;
    check_same_graphs (label ^ " --domains 4") serial
      (State_space.build ~domains:4 net algo);
    serial
  in
  List.iter
    (fun (e : Registry.entry) ->
      ignore (both e.Registry.name (Registry.network_for e None) e.Registry.algo))
    Registry.all;
  (* generator cases, each also edited at one destination and rebuilt
     incrementally *)
  let switchings = ref [] in
  for seed = 0 to 39 do
    let c = Dfr_fuzz.Gen.case (Dfr_util.Prng.create seed) ~max_nodes:8 in
    switchings := c.Dfr_fuzz.Case.switching :: !switchings;
    let label = Printf.sprintf "gen seed %d" seed in
    let net, algo = Dfr_fuzz.Case.to_net_algo c in
    let space = both label net algo in
    match branching_state c with
    | None -> ()
    | Some (s, dest, out) ->
      let net', algo' =
        Dfr_fuzz.Case.to_net_algo (Dfr_fuzz.Case.drop_route_output c s dest out)
      in
      check_same_graphs (label ^ " edited")
        (State_space.with_updated_dests space algo' ~dests:[ dest ])
        (State_space.build net' algo')
  done;
  List.iter
    (fun sw ->
      check Alcotest.bool "generator cases cover every switching" true
        (List.mem sw !switchings))
    [ Net.Wormhole; Net.Store_and_forward; Net.Virtual_cut_through ]

(* ---------------- BWG structure ---------------- *)

let test_bwg_ecube_acyclic () =
  let space = State_space.build cube3 Hypercube_wormhole.ecube in
  check Alcotest.bool "acyclic" true (Bwg.is_acyclic (Bwg.build space))

let test_bwg_efa_acyclic_2_3_4 () =
  List.iter
    (fun n ->
      let net = Net.wormhole (Topology.hypercube n) ~vcs:2 in
      let space = State_space.build net Hypercube_wormhole.efa in
      let bwg = Bwg.build space in
      check Alcotest.bool (Printf.sprintf "efa %d-cube acyclic" n) true
        (Bwg.is_acyclic bwg);
      check Alcotest.bool "wait connected" true (Bwg.is_wait_connected bwg))
    [ 2; 3; 4 ]

let test_bwg_duato_acyclic () =
  let space = State_space.build cube3 Hypercube_wormhole.duato in
  check Alcotest.bool "acyclic" true (Bwg.is_acyclic (Bwg.build space))

let test_bwg_efa_relaxed_cyclic () =
  let space = State_space.build cube2 Hypercube_wormhole.efa_relaxed in
  let bwg = Bwg.build space in
  check Alcotest.bool "cyclic" false (Bwg.is_acyclic bwg);
  check Alcotest.bool "no order" true (Bwg.topological_order bwg = None)

let test_bwg_waits_only_b1_for_efa () =
  (* EFA packets wait only on B1 channels, so no BWG edge targets a B2 *)
  let space = State_space.build cube3 Hypercube_wormhole.efa in
  let bwg = Bwg.build space in
  Dfr_graph.Digraph.iter_edges
    (fun _ w ->
      match Buf.kind (Net.buffer cube3 w) with
      | Buf.Channel { vc; _ } ->
        if vc <> 0 then Alcotest.fail "edge into a B2 buffer"
      | _ -> Alcotest.fail "edge into a non-channel")
    (Bwg.graph bwg)

let test_bwg_witnesses_present () =
  let space = State_space.build cube2 Hypercube_wormhole.efa in
  let bwg = Bwg.build space in
  Dfr_graph.Digraph.iter_edges
    (fun q w ->
      check Alcotest.bool "witnessed" true (fst (Bwg.witnesses bwg q w) <> []))
    (Bwg.graph bwg)

let test_bwg_wormhole_closure () =
  (* efa-relaxed on the 2-cube: a packet in B1+^0@(0,0) with dest 3 can
     continue to (1,0) and wait there on B1 of dim 1: an indirect edge *)
  let space = State_space.build cube2 Hypercube_wormhole.efa_relaxed in
  let bwg = Bwg.build space in
  let q1 = chan cube2 0 0 Topology.Plus 0 in
  let w = chan cube2 1 1 Topology.Plus 0 in
  check Alcotest.bool "indirect edge" true (Dfr_graph.Digraph.mem_edge (Bwg.graph bwg) q1 w)

let test_bwg_saf_no_closure () =
  (* SAF: a blocked packet occupies one buffer, so edges only go to the
     waits of the state itself (always one hop away) *)
  let space = State_space.build saf33 Mesh_saf.two_buffer in
  let bwg = Bwg.build space in
  Dfr_graph.Digraph.iter_edges
    (fun q w ->
      let qb = Net.buffer saf33 q and wb = Net.buffer saf33 w in
      let qn = Buf.head_node qb and wn = Buf.head_node wb in
      let topo = Net.topology_exn saf33 in
      if Buf.is_transit qb then
        check Alcotest.bool "neighbouring nodes" true
          (qn = wn || Topology.distance topo qn wn = 1))
    (Bwg.graph bwg)

let test_bwg_not_wait_connected_flagged () =
  (* an artificial algorithm with an empty waiting set *)
  let broken =
    Algo.make ~name:"broken" ~wait:Algo.Any_wait
      ~route:(fun net b ~dest -> Hypercube_wormhole.efa.Algo.route net b ~dest)
      ~waits:(fun _ _ ~dest:_ -> [])
      ()
  in
  let space = State_space.build cube2 broken in
  let bwg = Bwg.build space in
  check Alcotest.bool "not wait connected" false (Bwg.is_wait_connected bwg);
  check Alcotest.bool "violations listed" true (Bwg.unconnected_states bwg <> [])

let test_bwg_reduced_wait_sets () =
  let space = State_space.build saf33 Mesh_saf.two_buffer in
  match Slice_lists.hint space with
  | None -> Alcotest.fail "hint expected"
  | Some ws ->
    (* the full rule with every entry outside the hint removed, as
       [Reduction.verify_hint] narrows it, against the cold BWG' of the
       algorithm whose waits are the hint *)
    let cut = Bwg.session (Bwg.build space) in
    Cold.narrow cut ~wait_sets:ws;
    let bwg' = Bwg.Session.bwg cut in
    check Alcotest.(option string) "cut BWG' = cold BWG'" None
      (Cold.diff ~want:(Cold.bwg ~wait_sets:ws space) ~got:bwg');
    check Alcotest.bool "cut BWG' acyclic" true (Bwg.is_acyclic bwg');
    check Alcotest.bool "cut BWG' wait-connected" true (Bwg.is_wait_connected bwg');
    let bwg = Bwg.build space in
    check Alcotest.bool "full BWG cyclic" false (Bwg.is_acyclic bwg)

let test_bwg_to_dot () =
  let space = State_space.build cube2 Hypercube_wormhole.ecube in
  let dot = Bwg.to_dot (Bwg.build space) in
  check Alcotest.bool "nonempty dot" true (String.length dot > 100)

(* ---------------- deadlock configurations (knots) ---------------- *)

let test_knot_absent_for_free_algorithms () =
  List.iter
    (fun (e : Registry.entry) ->
      if e.Registry.expected_deadlock_free = Some true then begin
        let net = Registry.network_for e None in
        let space = State_space.build net e.Registry.algo in
        check Alcotest.bool (e.Registry.name ^ " no knot") true
          (Deadlock_config.find space = None)
      end)
    Registry.all

let test_knot_found_and_valid () =
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> Alcotest.fail "missing entry"
      | Some e -> (
        let net = Registry.network_for e None in
        let space = State_space.build net e.Registry.algo in
        match Deadlock_config.find space with
        | None -> Alcotest.fail (name ^ ": knot expected")
        | Some config ->
          check Alcotest.bool (name ^ " verifies") true
            (Deadlock_config.verify space config)))
    [ "efa-relaxed"; "unrestricted-hypercube"; "unrestricted-mesh";
      "unrestricted-torus"; "single-buffer" ]

let test_knot_verify_rejects_bogus () =
  let space = State_space.build cube2 Hypercube_wormhole.efa_relaxed in
  check Alcotest.bool "empty config rejected" false (Deadlock_config.verify space []);
  check Alcotest.bool "unsaturated config rejected" false
    (Deadlock_config.verify space [ (chan cube2 0 0 Topology.Plus 0, 3) ])

(* ---------------- cycle classification ---------------- *)

let test_classify_relaxed_efa_true_cycle () =
  let space = State_space.build cube2 Hypercube_wormhole.efa_relaxed in
  let bwg = Bwg.build space in
  let cycles, exhaustive = Bwg.cycles bwg in
  check Alcotest.bool "cycles enumerated" true (cycles <> []);
  check Alcotest.bool "exhaustive" true exhaustive;
  let stored = Array.of_list (List.map Array.of_list cycles) in
  let scan = Cycle_class.first_true_cycle bwg stored in
  (* the scan answers as a serial classification in list order does, at
     every fan-out *)
  let rec first i = function
    | [] -> Alcotest.fail "a True Cycle exists (Theorem 6)"
    | c :: rest -> (
      match Cycle_class.classify bwg c with
      | Cycle_class.True_cycle _ -> (i, c)
      | Cycle_class.False_resource_cycle _ -> first (i + 1) rest)
  in
  let index, cycle = first 0 cycles in
  check (Alcotest.option (Alcotest.list Alcotest.int)) "first True Cycle in list order"
    (Some cycle) (Option.map fst scan.Cycle_class.found);
  check Alcotest.int "classifications the answer rests on" (index + 1)
    scan.Cycle_class.classified;
  List.iter
    (fun domains ->
      check Alcotest.bool
        (Printf.sprintf "same scan at --domains %d" domains)
        true
        (Cycle_class.first_true_cycle ~domains bwg stored = scan))
    [ 2; 4 ];
  match scan.Cycle_class.found with
  | None -> Alcotest.fail "a True Cycle exists (Theorem 6)"
  | Some (cycle, packets) ->
    check Alcotest.int "one packet per edge" (List.length cycle) (List.length packets);
    (* pairwise disjoint occupied paths *)
    let all = List.concat_map (fun p -> p.Cycle_class.path) packets in
    check Alcotest.int "disjoint paths" (List.length all)
      (List.length (List.sort_uniq compare all));
    (* each packet's waited buffer is occupied by some other packet *)
    List.iter
      (fun (p : Cycle_class.packet) ->
        check Alcotest.bool "wait target occupied" true
          (List.exists
             (fun (q : Cycle_class.packet) ->
               q != p && List.mem p.Cycle_class.waits_for q.Cycle_class.path)
             packets))
      packets

(* Regression: the assignment search visits edges fewest-candidates-first,
   and used to return the chosen packets in that search order.  Consumers
   (pp_verdict, JSON reports) zip packets with cycle edges positionally,
   so the witness must come back in cycle order: packet k starts at cycle
   vertex k and waits for vertex k+1 (wrapping). *)
let test_classify_packets_in_cycle_order () =
  let nets =
    [
      (cube2, Hypercube_wormhole.efa_relaxed);
      (mesh33_1, Mesh_wormhole.unrestricted);
    ]
  in
  let checked = ref 0 in
  List.iter
    (fun (net, algo) ->
      let space = State_space.build net algo in
      let bwg = Bwg.build space in
      let cycles, _ = Bwg.cycles bwg in
      List.iter
        (fun cycle ->
          match Cycle_class.classify bwg cycle with
          | Cycle_class.False_resource_cycle _ -> ()
          | Cycle_class.True_cycle packets ->
            incr checked;
            let len = List.length cycle in
            check Alcotest.int "one packet per edge" len (List.length packets);
            List.iteri
              (fun k (p : Cycle_class.packet) ->
                check Alcotest.int
                  (Printf.sprintf "packet %d starts at cycle vertex %d" k k)
                  (List.nth cycle k)
                  (List.hd p.Cycle_class.path);
                check Alcotest.int
                  (Printf.sprintf "packet %d waits for vertex %d" k
                     ((k + 1) mod len))
                  (List.nth cycle ((k + 1) mod len))
                  p.Cycle_class.waits_for)
              packets)
        cycles)
    nets;
  check Alcotest.bool "some True Cycles were checked" true (!checked > 0)

(* Boundary regression for the path enumerator: reaching the cap exactly
   is not truncation.  A diamond has exactly two 0->3 paths; with the cap
   at two, the old code flagged the enumeration non-exhaustive (and the
   checker downgraded to Unknown) although nothing was missed. *)
let test_simple_paths_exact_cap_exhaustive () =
  let g = Dfr_graph.Csr.of_edges 5 [ (0, 1); (0, 2); (1, 3); (2, 3); (0, 4) ] in
  let limits = { Cycle_class.default_limits with Cycle_class.max_paths_per_edge = 2 } in
  let paths, exhaustive = Cycle_class.simple_paths ~limits g ~start:0 ~target:3 in
  check Alcotest.int "both paths found" 2 (List.length paths);
  check Alcotest.bool "exactly-at-cap is exhaustive" true exhaustive

let test_simple_paths_beyond_cap_truncated () =
  let g =
    Dfr_graph.Csr.of_edges 5
      [ (0, 1); (0, 2); (0, 4); (1, 3); (2, 3); (4, 3) ]
  in
  let limits = { Cycle_class.default_limits with Cycle_class.max_paths_per_edge = 2 } in
  let paths, exhaustive = Cycle_class.simple_paths ~limits g ~start:0 ~target:3 in
  check Alcotest.int "cap respected" 2 (List.length paths);
  check Alcotest.bool "third path flags truncation" false exhaustive

let test_simple_paths_length_cap_truncated () =
  let g = Dfr_graph.Csr.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let limits = { Cycle_class.default_limits with Cycle_class.max_path_length = 3 } in
  let paths, exhaustive = Cycle_class.simple_paths ~limits g ~start:0 ~target:4 in
  check Alcotest.int "path too long is not returned" 0 (List.length paths);
  check Alcotest.bool "length cut flags truncation" false exhaustive

let test_classify_rejects_non_cycle () =
  let space = State_space.build cube2 Hypercube_wormhole.efa_relaxed in
  let bwg = Bwg.build space in
  Alcotest.check_raises "not a BWG cycle"
    (Invalid_argument "Cycle_class.classify: not a BWG cycle") (fun () ->
      ignore (Cycle_class.classify bwg [ 0; 1 ]))

(* ---------------- checker verdicts (the headline results) ---------------- *)

let test_checker_matches_ground_truth () =
  List.iter
    (fun (e : Registry.entry) ->
      match e.Registry.expected_deadlock_free with
      | None -> ()
      | Some expected ->
        let net = Registry.network_for e None in
        let v = Checker.verdict net e.Registry.algo in
        check
          (Alcotest.option Alcotest.bool)
          (e.Registry.name ^ " verdict")
          (Some expected) (deadlock_free v))
    Registry.all

let test_theorem1_proofs () =
  (* Theorem 5: EFA's BWG is acyclic; same for ecube and duato *)
  List.iter
    (fun algo ->
      match Checker.verdict cube3 algo with
      | Checker.Deadlock_free Checker.Acyclic_bwg -> ()
      | v ->
        Alcotest.failf "expected Theorem 1 proof, got %a" (Checker.pp_verdict cube3) v)
    [ Hypercube_wormhole.ecube; Hypercube_wormhole.duato; Hypercube_wormhole.efa ]

let test_theorem3_two_buffer () =
  (* Theorem 4: Two-Buffer has a cyclic BWG but a verified BWG' *)
  let report = Checker.check saf33 Mesh_saf.two_buffer in
  match report.Checker.verdict with
  | Checker.Deadlock_free (Checker.Reduced_bwg { via_hint; _ }) ->
    check Alcotest.bool "via hint" true via_hint;
    check Alcotest.bool "full BWG is cyclic" false (Bwg.is_acyclic report.Checker.bwg)
  | v -> Alcotest.failf "expected Theorem 3 proof, got %a" (Checker.pp_verdict saf33) v

let test_theorem3_search_without_hint () =
  (* Strip the hint: the automatic reduction search must still find a BWG'
     on a small mesh *)
  let bare = { Mesh_saf.two_buffer with Algo.reduced_waits = None } in
  let net = Net.store_and_forward (Topology.mesh [| 2; 2 |]) ~classes:2 in
  match Checker.verdict net bare with
  | Checker.Deadlock_free (Checker.Reduced_bwg { via_hint; removed; _ }) ->
    check Alcotest.bool "by search" false via_hint;
    check Alcotest.bool "removed some waits" true (removed <> [])
  | v -> Alcotest.failf "expected search-found BWG', got %a" (Checker.pp_verdict net) v

(* The hint check and a stopped search hand the caller's session back
   with every entry live, reading the full BWG's edges: a one-probe
   search on the hintless two-buffer gives up mid-branch, and the
   catalogue's hint verifies. *)
let test_theorem3_hands_back_session () =
  let bare = { Mesh_saf.two_buffer with Algo.reduced_waits = None } in
  let handed_back name algo run =
    let space = State_space.build saf33 algo in
    let full = Bwg.graph (Bwg.build space) in
    let session = Bwg.session (Bwg.build space) in
    run name session;
    State_space.iter_reachable space (fun ~buf ~dest ->
        List.iter
          (fun w ->
            if not (Bwg.Session.is_live session ~buf ~dest w) then
              Alcotest.failf "%s: entry (%d, %d) -> %d left removed" name buf dest w)
          (Slice_lists.waits space ~buf ~dest));
    check Alcotest.bool (name ^ ": the full BWG's edges") true
      (Dfr_graph.Digraph.equal full (Bwg.graph (Bwg.Session.bwg session)))
  in
  handed_back "search ~budget:1" bare (fun name session ->
      match fst (Reduction.search ~budget:1 session) with
      | Reduction.Gave_up _ -> ()
      | _ -> Alcotest.failf "%s: a one-probe search did not give up" name);
  handed_back "verify_hint" Mesh_saf.two_buffer (fun name session ->
      match Reduction.verify_hint session with
      | Some (Reduction.Reduced []) -> ()
      | _ -> Alcotest.failf "%s: the hint did not verify" name)

let test_theorem6_relaxation_deadlocks () =
  match Checker.verdict cube2 Hypercube_wormhole.efa_relaxed with
  | Checker.Deadlock_possible _ -> ()
  | v -> Alcotest.failf "Theorem 6 violated: %a" (Checker.pp_verdict cube2) v

let test_checker_flags_broken_algorithm () =
  let broken =
    Algo.make ~name:"no-waits" ~wait:Algo.Any_wait
      ~route:(fun net b ~dest -> Hypercube_wormhole.efa.Algo.route net b ~dest)
      ~waits:(fun _ _ ~dest:_ -> [])
      ()
  in
  match Checker.verdict cube2 broken with
  | Checker.Deadlock_possible (Checker.Not_wait_connected states) ->
    check Alcotest.bool "states reported" true (states <> [])
  | v -> Alcotest.failf "expected wait-connectivity failure, got %a"
           (Checker.pp_verdict cube2) v

let test_checker_flags_stuck_states () =
  (* a routing relation with a genuine dead end: packets entering node 3
     for dest 0 have nowhere to go *)
  let stuck =
    Algo.make ~name:"dead-end" ~wait:Algo.Any_wait
      ~route:(fun net b ~dest ->
        let head = Buf.head_node b in
        if head = 3 && dest = 0 then []
        else Hypercube_wormhole.unrestricted.Algo.route net b ~dest)
      ()
  in
  match Checker.verdict cube2 stuck with
  | Checker.Deadlock_possible (Checker.Stuck_states states) ->
    check Alcotest.bool "dead ends reported" true (states <> [])
  | v -> Alcotest.failf "expected stuck states, got %a" (Checker.pp_verdict cube2) v

let test_bigger_instances_still_fast () =
  (* 4-cube and 5x5 meshes: the checker must stay well under a second *)
  let cube4 = Net.wormhole (Topology.hypercube 4) ~vcs:2 in
  check (Alcotest.option Alcotest.bool) "efa 4-cube" (Some true)
    (deadlock_free (Checker.verdict cube4 Hypercube_wormhole.efa));
  let mesh55 = Net.wormhole (Topology.mesh [| 5; 5 |]) ~vcs:1 in
  check (Alcotest.option Alcotest.bool) "west-first 5x5" (Some true)
    (deadlock_free (Checker.verdict mesh55 Mesh_wormhole.west_first));
  let mesh234 = Net.wormhole (Topology.mesh [| 2; 3; 4 |]) ~vcs:1 in
  check (Alcotest.option Alcotest.bool) "dimension-order 2x3x4" (Some true)
    (deadlock_free (Checker.verdict mesh234 Mesh_wormhole.dimension_order));
  check (Alcotest.option Alcotest.bool) "negative-first 2x3x4" (Some true)
    (deadlock_free (Checker.verdict mesh234 Mesh_wormhole.negative_first))

let test_ring_sizes () =
  List.iter
    (fun k ->
      let net = Net.wormhole (Topology.ring k) ~vcs:2 in
      check (Alcotest.option Alcotest.bool)
        (Printf.sprintf "dateline ring %d" k)
        (Some true)
        (deadlock_free (Checker.verdict net Torus_wormhole.dateline)))
    [ 3; 4; 5; 6; 8 ]

let test_wait_everywhere_efa_still_free () =
  (* ablation: EFA that waits on every permitted output is an Any_wait
     algorithm; its full BWG acquires cycles through the B2 waits but a
     BWG' must exist (the specific-wait rule is one) *)
  let v = Checker.verdict cube2 (Algo.wait_everywhere Hypercube_wormhole.efa) in
  check (Alcotest.option Alcotest.bool) "still deadlock-free" (Some true)
    (deadlock_free v)

(* ---------------- baselines: CDG and Duato's condition ---------------- *)

let test_cdg_certifies_ecube_only () =
  let space_ecube = State_space.build cube3 Hypercube_wormhole.ecube in
  check Alcotest.bool "ecube certified" true (Cdg.deadlock_free space_ecube);
  let space_efa = State_space.build cube3 Hypercube_wormhole.efa in
  check Alcotest.bool "efa rejected" false (Cdg.deadlock_free space_efa);
  let space_duato = State_space.build cube3 Hypercube_wormhole.duato in
  check Alcotest.bool "duato rejected" false (Cdg.deadlock_free space_duato)

let test_cdg_turn_models () =
  let space = State_space.build mesh33_1 Mesh_wormhole.west_first in
  check Alcotest.bool "west-first certified" true (Cdg.deadlock_free space);
  let space_u = State_space.build mesh33_1 Mesh_wormhole.unrestricted in
  check Alcotest.bool "unrestricted rejected" false (Cdg.deadlock_free space_u)

let test_duato_condition_certifies_duato () =
  let space = State_space.build cube3 Hypercube_wormhole.duato in
  check Alcotest.bool "duato certified" true (Duato_condition.deadlock_free space)

let test_duato_condition_rejects_efa_on_3cube () =
  (* the partially adaptive use of the escape channels creates usage
     cycles from dimension 3 on, exactly the paper's motivation *)
  let space2 = State_space.build cube2 Hypercube_wormhole.efa in
  check Alcotest.bool "2-cube: still acyclic" true (Duato_condition.deadlock_free space2);
  let space3 = State_space.build cube3 Hypercube_wormhole.efa in
  let r = Duato_condition.analyze space3 in
  check Alcotest.bool "escape connected" true r.Duato_condition.connected;
  check Alcotest.bool "usage cycles" false r.Duato_condition.acyclic;
  check Alcotest.bool "rejected" false r.Duato_condition.certified

let test_bwg_beats_baselines () =
  (* the separation the paper claims: algorithms certified by the BWG
     technique but by neither baseline *)
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> Alcotest.fail "missing"
      | Some e ->
        let net = Registry.network_for e None in
        let space = State_space.build net e.Registry.algo in
        check Alcotest.bool (name ^ " cdg rejects") false (Cdg.deadlock_free space);
        check Alcotest.bool (name ^ " duato rejects") false
          (Duato_condition.deadlock_free space);
        check
          (Alcotest.option Alcotest.bool)
          (name ^ " bwg certifies") (Some true)
          (deadlock_free (Checker.verdict net e.Registry.algo)))
    [ "efa"; "two-buffer" ]

let suite =
  [
    Alcotest.test_case "space reachability (ecube)" `Quick test_space_reachability_ecube;
    Alcotest.test_case "space input dependence" `Quick test_space_input_dependence;
    Alcotest.test_case "space arrived" `Quick test_space_arrived;
    Alcotest.test_case "no stuck states in catalogue" `Quick test_space_no_stuck_states;
    Alcotest.test_case "move graph matches outputs" `Quick test_move_graph_matches_outputs;
    Alcotest.test_case "BWG ecube acyclic" `Quick test_bwg_ecube_acyclic;
    Alcotest.test_case "BWG efa acyclic n=2,3,4 (Thm 5)" `Quick test_bwg_efa_acyclic_2_3_4;
    Alcotest.test_case "BWG duato acyclic" `Quick test_bwg_duato_acyclic;
    Alcotest.test_case "BWG efa-relaxed cyclic" `Quick test_bwg_efa_relaxed_cyclic;
    Alcotest.test_case "BWG efa targets only B1" `Quick test_bwg_waits_only_b1_for_efa;
    Alcotest.test_case "BWG witnesses present" `Quick test_bwg_witnesses_present;
    Alcotest.test_case "BWG wormhole closure" `Quick test_bwg_wormhole_closure;
    Alcotest.test_case "BWG SAF locality" `Quick test_bwg_saf_no_closure;
    Alcotest.test_case "BWG flags missing waits" `Quick test_bwg_not_wait_connected_flagged;
    Alcotest.test_case "BWG' from hint (Thm 4)" `Quick test_bwg_reduced_wait_sets;
    Alcotest.test_case "BWG dot export" `Quick test_bwg_to_dot;
    Alcotest.test_case "knots absent for free algorithms" `Quick
      test_knot_absent_for_free_algorithms;
    Alcotest.test_case "knots found for broken algorithms" `Quick test_knot_found_and_valid;
    Alcotest.test_case "knot verify rejects bogus" `Quick test_knot_verify_rejects_bogus;
    Alcotest.test_case "classify relaxed-efa True Cycle" `Quick
      test_classify_relaxed_efa_true_cycle;
    Alcotest.test_case "classify rejects non-cycles" `Quick test_classify_rejects_non_cycle;
    Alcotest.test_case "True-Cycle packets come back in cycle order" `Quick
      test_classify_packets_in_cycle_order;
    Alcotest.test_case "simple_paths: exact cap stays exhaustive" `Quick
      test_simple_paths_exact_cap_exhaustive;
    Alcotest.test_case "simple_paths: beyond cap truncates" `Quick
      test_simple_paths_beyond_cap_truncated;
    Alcotest.test_case "simple_paths: length cap truncates" `Quick
      test_simple_paths_length_cap_truncated;
    Alcotest.test_case "checker matches ground truth" `Quick test_checker_matches_ground_truth;
    Alcotest.test_case "Theorem 1 proofs" `Quick test_theorem1_proofs;
    Alcotest.test_case "Theorem 3 via hint (Thm 4)" `Quick test_theorem3_two_buffer;
    Alcotest.test_case "Theorem 3 via search" `Quick test_theorem3_search_without_hint;
    Alcotest.test_case "Theorem 6 relaxation deadlocks" `Quick
      test_theorem6_relaxation_deadlocks;
    Alcotest.test_case "checker flags missing waits" `Quick test_checker_flags_broken_algorithm;
    Alcotest.test_case "checker flags dead ends" `Quick test_checker_flags_stuck_states;
    Alcotest.test_case "bigger instances" `Quick test_bigger_instances_still_fast;
    Alcotest.test_case "dateline on several rings" `Quick test_ring_sizes;
    Alcotest.test_case "wait-everywhere EFA ablation" `Quick
      test_wait_everywhere_efa_still_free;
    Alcotest.test_case "CDG certifies ecube only" `Quick test_cdg_certifies_ecube_only;
    Alcotest.test_case "CDG turn models" `Quick test_cdg_turn_models;
    Alcotest.test_case "Duato condition certifies duato" `Quick
      test_duato_condition_certifies_duato;
    Alcotest.test_case "Duato condition rejects efa (3-cube)" `Quick
      test_duato_condition_rejects_efa_on_3cube;
    Alcotest.test_case "BWG beats both baselines" `Quick test_bwg_beats_baselines;
  ]

(* ---------------- extensions: new algorithms, ablations ---------------- *)

let test_double_y_verdict () =
  let net = Net.wormhole (Topology.mesh [| 4; 4 |]) ~vcs:2 in
  match Checker.verdict net Mesh_wormhole.double_y with
  | Checker.Deadlock_free _ -> ()
  | v -> Alcotest.failf "double-y should be free: %a" (Checker.pp_verdict net) v

let test_hop_class_verdict_theorem1 () =
  let net = Net.store_and_forward (Topology.mesh [| 3; 3 |]) ~classes:5 in
  match Checker.verdict net Mesh_saf.hop_class with
  | Checker.Deadlock_free Checker.Acyclic_bwg -> ()
  | v -> Alcotest.failf "hop-class is the classic acyclic ordering: %a"
           (Checker.pp_verdict net) v

let test_duato_torus_verdict () =
  List.iter
    (fun topo ->
      let net = Net.wormhole topo ~vcs:3 in
      match Checker.verdict net Torus_wormhole.duato_torus with
      | Checker.Deadlock_free _ -> ()
      | v -> Alcotest.failf "duato-torus should be free: %a" (Checker.pp_verdict net) v)
    [ Topology.ring 5; Topology.torus [| 4; 4 |] ]

let test_every_pair_relaxation_deadlocks () =
  (* Theorem 6: each single relaxed pair already deadlocks, on the cube
     that contains both dimensions *)
  let net = Net.wormhole (Topology.hypercube 3) ~vcs:2 in
  List.iter
    (fun (l, i) ->
      let algo = Hypercube_wormhole.efa_relaxed_pair ~l ~i in
      match Checker.verdict net algo with
      | Checker.Deadlock_possible _ -> ()
      | v ->
        Alcotest.failf "pair (%d,%d) must deadlock: %a" l i
          (Checker.pp_verdict net) v)
    [ (0, 1); (0, 2); (1, 2) ]

let test_pair_relaxation_cycle_uses_both_dimensions () =
  (* Theorem 6's proof shape: relaxing pair (l, i) creates a True Cycle
     over B1 channels of dimensions l and i, both directions each *)
  let net = Net.wormhole (Topology.hypercube 3) ~vcs:2 in
  let algo = Hypercube_wormhole.efa_relaxed_pair ~l:0 ~i:2 in
  let space = State_space.build net algo in
  let bwg = Bwg.build space in
  (* the full BWG has far too many (mixed) cycles to enumerate; restrict to
     the pair's B1 channels — any cycle of the induced subgraph is a BWG
     cycle *)
  let keep buf =
    match Buf.kind (Net.buffer net buf) with
    | Buf.Channel { dim; vc = 0; _ } -> dim = 0 || dim = 2
    | _ -> false
  in
  let induced = Dfr_graph.Digraph.induced (Bwg.graph bwg) ~keep in
  let candidates = Dfr_graph.Cycles.enumerate induced in
  check Alcotest.bool "cycles over the pair's B1 channels exist" true
    (candidates <> []);
  match
    (Cycle_class.first_true_cycle bwg
       (Array.of_list (List.map Array.of_list candidates)))
      .Cycle_class.found
  with
  | Some (cycle, _) ->
    let dims =
      List.sort_uniq compare
        (List.filter_map
           (fun buf ->
             match Buf.kind (Net.buffer net buf) with
             | Buf.Channel { dim; _ } -> Some dim
             | _ -> None)
           cycle)
    in
    check (Alcotest.list Alcotest.int) "both dimensions used" [ 0; 2 ] dims
  | None -> Alcotest.fail "a True Cycle over the relaxed pair exists"

let test_vct_matches_saf_verdicts () =
  (* the paper's model treats VCT like SAF for deadlock purposes *)
  let topo = Topology.mesh [| 3; 3 |] in
  let saf = Net.store_and_forward topo ~classes:2 in
  let vct = Net.virtual_cut_through topo ~classes:2 in
  check (Alcotest.option Alcotest.bool) "two-buffer same verdict"
    (deadlock_free (Checker.verdict saf Mesh_saf.two_buffer))
    (deadlock_free (Checker.verdict vct Mesh_saf.two_buffer));
  let saf1 = Net.store_and_forward topo ~classes:1 in
  let vct1 = Net.virtual_cut_through topo ~classes:1 in
  check (Alcotest.option Alcotest.bool) "single-buffer same verdict"
    (deadlock_free (Checker.verdict saf1 Mesh_saf.single_buffer))
    (deadlock_free (Checker.verdict vct1 Mesh_saf.single_buffer))

let test_closure_ablation_unsound () =
  (* without the wormhole continuation closure the incoherent example's
     self-loops disappear and the BWG wrongly looks deadlock-free: the
     closure is load-bearing *)
  let net = Incoherent_example.network () in
  let space = State_space.build net Incoherent_example.algo in
  let full = Bwg.build space in
  let direct = Bwg.build ~indirect:false space in
  check Alcotest.bool "full BWG cyclic" false (Bwg.is_acyclic full);
  check Alcotest.bool "direct-only BWG acyclic (wrongly)" true (Bwg.is_acyclic direct)

let test_closure_matches_for_saf () =
  (* for packet-buffered switching the closure changes nothing *)
  let space = State_space.build saf33 Mesh_saf.two_buffer in
  let a = Bwg.build space and b = Bwg.build ~indirect:false space in
  check Alcotest.bool "same graph" true
    (Dfr_graph.Digraph.equal (Bwg.graph a) (Bwg.graph b))

let test_hybrid_closures_match_dense () =
  (* the hybrid sparse/dense closure rows are an allocation strategy, not a
     semantics change: forcing every row dense must yield the identical
     graph (and hence identical verdict material) on every catalogue entry *)
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      let space = State_space.build net e.Registry.algo in
      let hybrid = Bwg.build space in
      let dense = Bwg.build ~dense_closures:true space in
      check Alcotest.bool
        (e.Registry.name ^ " hybrid = dense graph")
        true
        (Dfr_graph.Digraph.equal (Bwg.graph hybrid) (Bwg.graph dense));
      check Alcotest.bool
        (e.Registry.name ^ " hybrid = dense acyclicity")
        (Bwg.is_acyclic dense) (Bwg.is_acyclic hybrid))
    Registry.all

let test_witness_cap_respected () =
  let space = State_space.build cube3 Hypercube_wormhole.efa in
  let bwg = Bwg.build ~witness_cap:2 space in
  Dfr_graph.Digraph.iter_edges
    (fun q w ->
      check Alcotest.bool "cap" true (List.length (fst (Bwg.witnesses bwg q w)) <= 2))
    (Bwg.graph bwg)

let suite =
  suite
  @ [
      Alcotest.test_case "double-y verdict" `Quick test_double_y_verdict;
      Alcotest.test_case "hop-class Theorem 1" `Quick test_hop_class_verdict_theorem1;
      Alcotest.test_case "duato-torus verdict" `Quick test_duato_torus_verdict;
      Alcotest.test_case "every pair relaxation deadlocks (Thm 6)" `Quick
        test_every_pair_relaxation_deadlocks;
      Alcotest.test_case "pair relaxation cycle dimensions" `Quick
        test_pair_relaxation_cycle_uses_both_dimensions;
      Alcotest.test_case "VCT matches SAF" `Quick test_vct_matches_saf_verdicts;
      Alcotest.test_case "closure ablation is unsound" `Quick test_closure_ablation_unsound;
      Alcotest.test_case "closure no-op for SAF" `Quick test_closure_matches_for_saf;
      Alcotest.test_case "hybrid closures = dense closures" `Quick
        test_hybrid_closures_match_dense;
      Alcotest.test_case "witness cap respected" `Quick test_witness_cap_respected;
    ]

(* ---------------- certificates ---------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_certificate_theorem1 () =
  let report = Checker.check cube3 Hypercube_wormhole.efa in
  let cert = Certificate.render cube3 Hypercube_wormhole.efa report in
  check Alcotest.bool "verdict line" true (contains cert "DEADLOCK-FREE  (Theorem 1)");
  check Alcotest.bool "order shown" true (contains cert " < ");
  check Alcotest.bool "names algorithm" true (contains cert "efa")

let test_certificate_theorem3 () =
  let report = Checker.check saf33 Mesh_saf.two_buffer in
  let cert = Certificate.render saf33 Mesh_saf.two_buffer report in
  check Alcotest.bool "Theorem 3" true (contains cert "(Theorem 3, reduced waiting graph)");
  check Alcotest.bool "mentions hint" true (contains cert "declarative hint")

let test_certificate_knot () =
  let report = Checker.check cube2 Hypercube_wormhole.efa_relaxed in
  let cert = Certificate.render cube2 Hypercube_wormhole.efa_relaxed report in
  check Alcotest.bool "deadlock" true (contains cert "VERDICT: DEADLOCK");
  check Alcotest.bool "paper notation" true (contains cert "B1+^0@(0,0)")

let test_certificate_true_cycle () =
  let net = Incoherent_example.network () in
  let report = Checker.check net Incoherent_example.algo in
  let cert = Certificate.render net Incoherent_example.algo report in
  check Alcotest.bool "True Cycle" true (contains cert "(Theorem 2, True Cycle)");
  check Alcotest.bool "witness packets" true (contains cert "waits for")

let suite =
  suite
  @ [
      Alcotest.test_case "certificate Theorem 1" `Quick test_certificate_theorem1;
      Alcotest.test_case "certificate Theorem 3" `Quick test_certificate_theorem3;
      Alcotest.test_case "certificate knot" `Quick test_certificate_knot;
      Alcotest.test_case "certificate True Cycle" `Quick test_certificate_true_cycle;
    ]

(* ---------------- liveness ---------------- *)

let test_liveness_minimal_algorithms () =
  List.iter
    (fun (e : Registry.entry) ->
      if e.Registry.family <> Registry.Custom_family then begin
        let net = Registry.network_for e None in
        let space = State_space.build net e.Registry.algo in
        check Alcotest.bool (e.Registry.name ^ " livelock-free") true
          (Liveness.livelock_free space);
        check Alcotest.bool (e.Registry.name ^ " minimal") true
          (Liveness.is_minimal space)
      end)
    Registry.all

let test_liveness_incoherent_example () =
  (* the qA1 <-> qB2 detour is a genuine livelock possibility *)
  let net = Incoherent_example.network () in
  let space = State_space.build net Incoherent_example.algo in
  let r = Liveness.analyze space in
  check Alcotest.bool "not livelock-free" false r.Liveness.livelock_free;
  check (Alcotest.option Alcotest.int) "toward n3" (Some Incoherent_example.n3)
    r.Liveness.offending_dest;
  (match r.Liveness.cycle with
  | Some cycle ->
    check Alcotest.bool "cycle passes through qB2" true
      (List.mem (Incoherent_example.q_b2 net) cycle)
  | None -> Alcotest.fail "cycle witness expected");
  check Alcotest.bool "not minimal either" false (Liveness.is_minimal space)

let suite =
  suite
  @ [
      Alcotest.test_case "liveness of catalogue algorithms" `Quick
        test_liveness_minimal_algorithms;
      Alcotest.test_case "liveness flags the incoherent example" `Quick
        test_liveness_incoherent_example;
    ]

(* ---------------- irregular networks: up*/down* ---------------- *)

let test_updown_small_graph () =
  (* a 5-node graph with a cycle: triangle 0-1-2 plus pendant path 2-3-4 *)
  let t =
    Updown.make ~num_nodes:5
      ~edges:[ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ]
      ~root:0
  in
  (match Checker.verdict t.Updown.net t.Updown.algo with
  | Checker.Deadlock_free _ -> ()
  | v ->
    Alcotest.failf "up*/down* should be free: %a" (Checker.pp_verdict t.Updown.net) v);
  let space = State_space.build t.Updown.net t.Updown.algo in
  check Alcotest.int "no dead ends" 0 (List.length (State_space.stuck_states space));
  check Alcotest.bool "livelock-free by construction" true
    (Liveness.livelock_free space)

let test_updown_levels () =
  let t =
    Updown.make ~num_nodes:5
      ~edges:[ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ]
      ~root:0
  in
  check Alcotest.bool "1 -> 0 is up" true (Updown.is_up t ~src:1 ~dst:0);
  check Alcotest.bool "0 -> 1 is down" false (Updown.is_up t ~src:0 ~dst:1);
  check Alcotest.bool "3 -> 2 is up" true (Updown.is_up t ~src:3 ~dst:2)

let test_updown_rejects_disconnected () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Updown.make: graph is not connected") (fun () ->
      ignore (Updown.make ~num_nodes:4 ~edges:[ (0, 1); (2, 3) ] ~root:0))

let test_updown_random_graphs () =
  (* the paper's universality claim on irregular topologies: every random
     connected graph yields a certified-deadlock-free relation *)
  List.iter
    (fun seed ->
      let t = Updown.random_connected ~seed ~num_nodes:7 ~extra_edges:4 in
      match Checker.verdict t.Updown.net t.Updown.algo with
      | Checker.Deadlock_free _ -> ()
      | v ->
        Alcotest.failf "seed %d: %a" seed (Checker.pp_verdict t.Updown.net) v)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_updown_never_deadlocks_dynamically () =
  let t = Updown.random_connected ~seed:42 ~num_nodes:8 ~extra_edges:5 in
  (* custom networks have no Topology, so build traffic by hand: an
     all-pairs batch *)
  let n = Net.num_nodes t.Updown.net in
  let traffic = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        traffic :=
          { Dfr_sim.Traffic.src; dst; length = 6; inject_at = 0;
            mode = Dfr_sim.Traffic.Adaptive }
          :: !traffic
    done
  done;
  match Dfr_sim.Wormhole_sim.run t.Updown.net t.Updown.algo !traffic with
  | Dfr_sim.Drive.Completed s ->
    check Alcotest.int "all delivered" (List.length !traffic) s.Dfr_sim.Stats.delivered
  | o -> Alcotest.failf "up*/down* stalled: %a" Dfr_sim.Drive.pp_outcome o

(* ---------------- odd-even turn model ---------------- *)

let test_odd_even_verdicts () =
  List.iter
    (fun radices ->
      let net = Net.wormhole (Topology.mesh radices) ~vcs:1 in
      match Checker.verdict net Mesh_wormhole.odd_even with
      | Checker.Deadlock_free _ -> ()
      | v ->
        Alcotest.failf "odd-even on %s: %a" (Net.name net) (Checker.pp_verdict net) v)
    [ [| 3; 3 |]; [| 4; 4 |]; [| 5; 4 |]; [| 4; 5 |] ]

let test_odd_even_turn_rules () =
  let net = Net.wormhole (Topology.mesh [| 5; 5 |]) ~vcs:1 in
  let topo = Net.topology_exn net in
  let node x y = Topology.node_of_coord topo [| x; y |] in
  let east_into x y = Net.channel net ~src:(node (x - 1) y) ~dim:0 ~dir:Topology.Plus ~vc:0 in
  (* traveling east into an even column, still needing north: EN forbidden *)
  let r = Mesh_wormhole.odd_even.Algo.route net (east_into 2 0) ~dest:(node 4 3) in
  check Alcotest.bool "no EN turn at even column" false
    (List.exists
       (fun id ->
         match Buf.kind (Net.buffer net id) with
         | Buf.Channel { dim = 1; _ } -> true
         | _ -> false)
       r);
  (* same situation one column further (odd): the turn is allowed *)
  let r2 = Mesh_wormhole.odd_even.Algo.route net (east_into 3 0) ~dest:(node 4 3) in
  check Alcotest.bool "EN turn allowed at odd column" true
    (List.exists
       (fun id ->
         match Buf.kind (Net.buffer net id) with
         | Buf.Channel { dim = 1; _ } -> true
         | _ -> false)
       r2);
  (* westbound: row corrections only in even columns *)
  let inj = Net.injection net (node 3 0) in
  let r3 = Mesh_wormhole.odd_even.Algo.route net inj ~dest:(node 0 2) in
  check Alcotest.bool "no row move at odd column when westbound" false
    (List.exists
       (fun id ->
         match Buf.kind (Net.buffer net id) with
         | Buf.Channel { dim = 1; _ } -> true
         | _ -> false)
       r3)

let test_odd_even_more_adaptive_than_turn_models_somewhere () =
  (* odd-even's selling point: restrictions are spread evenly; check it
     offers an adaptive choice where west-first is deterministic *)
  let net = Net.wormhole (Topology.mesh [| 5; 5 |]) ~vcs:1 in
  let topo = Net.topology_exn net in
  let node x y = Topology.node_of_coord topo [| x; y |] in
  let inj = Net.injection net (node 4 0) in
  (* westbound with a row correction pending at an even column *)
  let wf = Mesh_wormhole.west_first.Algo.route net inj ~dest:(node 2 2) in
  let oe =
    Mesh_wormhole.odd_even.Algo.route net
      (Net.injection net (node 4 0))
      ~dest:(node 2 2)
  in
  check Alcotest.int "west-first: west only" 1 (List.length wf);
  check Alcotest.int "odd-even: west or north" 2 (List.length oe)

let suite =
  suite
  @ [
      Alcotest.test_case "up*/down* small graph" `Quick test_updown_small_graph;
      Alcotest.test_case "up*/down* levels" `Quick test_updown_levels;
      Alcotest.test_case "up*/down* rejects disconnected" `Quick
        test_updown_rejects_disconnected;
      Alcotest.test_case "up*/down* random graphs certified" `Quick
        test_updown_random_graphs;
      Alcotest.test_case "up*/down* drains dynamically" `Quick
        test_updown_never_deadlocks_dynamically;
      Alcotest.test_case "odd-even verdicts" `Quick test_odd_even_verdicts;
      Alcotest.test_case "odd-even turn rules" `Quick test_odd_even_turn_rules;
      Alcotest.test_case "odd-even adaptivity spread" `Quick
        test_odd_even_more_adaptive_than_turn_models_somewhere;
    ]

(* ---------------- JSON reports ---------------- *)

let test_report_json_free () =
  let report = Checker.check cube3 Hypercube_wormhole.efa in
  let s = Report_json.to_string cube3 Hypercube_wormhole.efa report in
  check Alcotest.bool "result field" true (contains s "\"result\": \"deadlock-free\"");
  check Alcotest.bool "theorem field" true (contains s "\"theorem\": 1");
  check Alcotest.bool "algorithm name" true (contains s "\"efa\"")

let test_report_json_deadlock () =
  let report = Checker.check cube2 Hypercube_wormhole.efa_relaxed in
  let s = Report_json.to_string cube2 Hypercube_wormhole.efa_relaxed report in
  check Alcotest.bool "deadlock" true (contains s "\"result\": \"deadlock\"");
  check Alcotest.bool "knot kind" true (contains s "\"kind\": \"knot\"");
  check Alcotest.bool "paper-notation names" true (contains s "B1+^0@(0,0)")

let test_report_json_theorem3 () =
  let report = Checker.check saf33 Mesh_saf.two_buffer in
  let s = Report_json.to_string saf33 Mesh_saf.two_buffer report in
  check Alcotest.bool "theorem 3" true (contains s "\"theorem\": 3");
  check Alcotest.bool "hint flag" true (contains s "\"via_hint\": true")

(* ---------------- route-restriction monotonicity ---------------- *)

let test_restricting_nonwait_outputs_preserves_theorem1 () =
  (* dropping outputs a packet never waits on can only shrink the BWG, so
     Theorem 1 verdicts survive any such restriction (here: randomly drop
     B2 options from EFA, keeping the relation wait-connected) *)
  List.iter
    (fun seed ->
      let rng = Dfr_util.Prng.create seed in
      let table = Hashtbl.create 64 in
      let keep b dest o =
        let key = (b, dest, o) in
        match Hashtbl.find_opt table key with
        | Some v -> v
        | None ->
          let v = Dfr_util.Prng.bool rng in
          Hashtbl.replace table key v;
          v
      in
      let restricted =
        Algo.make
          ~name:(Printf.sprintf "efa-restricted-%d" seed)
          ~wait:Algo.Specific_wait
          ~route:(fun net b ~dest ->
            let waits = Hypercube_wormhole.efa.Algo.waits net b ~dest in
            List.filter
              (fun o ->
                List.mem o waits || keep (Buf.id b) dest o)
              (Hypercube_wormhole.efa.Algo.route net b ~dest))
          ~waits:(fun net b ~dest -> Hypercube_wormhole.efa.Algo.waits net b ~dest)
          ()
      in
      match Checker.verdict cube3 restricted with
      | Checker.Deadlock_free _ -> ()
      | v ->
        Alcotest.failf "restricted EFA (seed %d) must stay free: %a" seed
          (Checker.pp_verdict cube3) v)
    [ 1; 2; 3; 4; 5 ]

let suite =
  suite
  @ [
      Alcotest.test_case "json report (free)" `Quick test_report_json_free;
      Alcotest.test_case "json report (deadlock)" `Quick test_report_json_deadlock;
      Alcotest.test_case "json report (theorem 3)" `Quick test_report_json_theorem3;
      Alcotest.test_case "restriction preserves Theorem 1" `Quick
        test_restricting_nonwait_outputs_preserves_theorem1;
    ]

(* ---------------- planar-adaptive & turn extraction ---------------- *)

let test_planar_adaptive_verdicts () =
  List.iter
    (fun radices ->
      let net = Net.wormhole (Topology.mesh radices) ~vcs:3 in
      match Checker.verdict net Mesh_wormhole.planar_adaptive with
      | Checker.Deadlock_free Checker.Acyclic_bwg -> ()
      | v ->
        Alcotest.failf "planar-adaptive on %s: %a" (Net.name net)
          (Checker.pp_verdict net) v)
    [ [| 4; 4 |]; [| 3; 3; 3 |]; [| 2; 3; 4 |] ]

let test_planar_adaptive_plane_structure () =
  (* in-plane adaptivity uses only the two lowest consecutive needed
     dimensions; non-consecutive pairs route deterministically *)
  let net = Net.wormhole (Topology.mesh [| 3; 3; 3 |]) ~vcs:3 in
  let topo = Net.topology_exn net in
  let node a b c = Topology.node_of_coord topo [| a; b; c |] in
  let inj = Net.injection net (node 0 0 0) in
  (* needs dims 0 and 1: two offers (x and y of plane A0) *)
  let r = Mesh_wormhole.planar_adaptive.Algo.route net inj ~dest:(node 1 1 0) in
  check Alcotest.int "plane A0 adaptive" 2 (List.length r);
  (* needs dims 0 and 2 only: deterministic x of A0 *)
  let r2 = Mesh_wormhole.planar_adaptive.Algo.route net inj ~dest:(node 1 0 1) in
  check Alcotest.int "non-consecutive: x only" 1 (List.length r2);
  (* needs all three: still only plane A0's two offers *)
  let r3 = Mesh_wormhole.planar_adaptive.Algo.route net inj ~dest:(node 1 1 1) in
  check Alcotest.int "three dims: plane A0 only" 2 (List.length r3)

let test_turns_count () =
  check Alcotest.int "2-D has 8 turns" 8 (List.length (Turns.all_turns ~dims:2));
  check Alcotest.int "3-D has 24 turns" 24 (List.length (Turns.all_turns ~dims:3))

let turn d1 r1 d2 r2 =
  { Turns.from_dim = d1; from_dir = r1; to_dim = d2; to_dir = r2 }

let test_turns_west_first () =
  let space = State_space.build mesh33_1 Mesh_wormhole.west_first in
  (* the two forbidden turn senses: into west from north/south *)
  check Alcotest.bool "N->W forbidden" false
    (Turns.permitted space (turn 1 Topology.Plus 0 Topology.Minus));
  check Alcotest.bool "S->W forbidden" false
    (Turns.permitted space (turn 1 Topology.Minus 0 Topology.Minus));
  (* all six remaining turns are taken somewhere *)
  let forbidden =
    List.filter (fun (_, p) -> not p) (Turns.turn_set space) |> List.length
  in
  check Alcotest.int "exactly two turns forbidden" 2 forbidden

let test_turns_north_last () =
  let space = State_space.build mesh33_1 Mesh_wormhole.north_last in
  (* out of north is forbidden *)
  check Alcotest.bool "N->E forbidden" false
    (Turns.permitted space (turn 1 Topology.Plus 0 Topology.Plus));
  check Alcotest.bool "N->W forbidden" false
    (Turns.permitted space (turn 1 Topology.Plus 0 Topology.Minus));
  let forbidden =
    List.filter (fun (_, p) -> not p) (Turns.turn_set space) |> List.length
  in
  check Alcotest.int "exactly two turns forbidden" 2 forbidden

let test_turns_negative_first () =
  let space = State_space.build mesh33_1 Mesh_wormhole.negative_first in
  (* from a positive direction into a negative one is forbidden *)
  check Alcotest.bool "E->S forbidden" false
    (Turns.permitted space (turn 0 Topology.Plus 1 Topology.Minus));
  check Alcotest.bool "N->W forbidden" false
    (Turns.permitted space (turn 1 Topology.Plus 0 Topology.Minus));
  check Alcotest.bool "W->N allowed" true
    (Turns.permitted space (turn 0 Topology.Minus 1 Topology.Plus))

let test_turns_odd_even_position_dependent () =
  let net = Net.wormhole (Topology.mesh [| 5; 5 |]) ~vcs:1 in
  let space = State_space.build net Mesh_wormhole.odd_even in
  let topo = Net.topology_exn net in
  let node x y = Topology.node_of_coord topo [| x; y |] in
  let en = turn 0 Topology.Plus 1 Topology.Plus in
  (* EN allowed at odd columns, forbidden at even ones *)
  check Alcotest.bool "EN at column 3" true
    (Turns.permitted_at space ~node:(node 3 1) en);
  check Alcotest.bool "no EN at column 2" false
    (Turns.permitted_at space ~node:(node 2 1) en);
  (* globally both senses appear: no turn is forbidden everywhere *)
  let forbidden =
    List.filter (fun (_, p) -> not p) (Turns.turn_set space) |> List.length
  in
  check Alcotest.int "no globally forbidden turn" 0 forbidden

let test_turns_dimension_order () =
  let space = State_space.build mesh33_1 Mesh_wormhole.dimension_order in
  (* only turns from dim 0 into dim 1 exist *)
  List.iter
    (fun (t, p) ->
      let expected = t.Turns.from_dim = 0 && t.Turns.to_dim = 1 in
      check Alcotest.bool "XY turn pattern" expected p)
    (Turns.turn_set space)

let suite =
  suite
  @ [
      Alcotest.test_case "planar-adaptive verdicts" `Quick test_planar_adaptive_verdicts;
      Alcotest.test_case "planar-adaptive plane structure" `Quick
        test_planar_adaptive_plane_structure;
      Alcotest.test_case "turn inventory sizes" `Quick test_turns_count;
      Alcotest.test_case "turns: west-first" `Quick test_turns_west_first;
      Alcotest.test_case "turns: north-last" `Quick test_turns_north_last;
      Alcotest.test_case "turns: negative-first" `Quick test_turns_negative_first;
      Alcotest.test_case "turns: odd-even by column" `Quick
        test_turns_odd_even_position_dependent;
      Alcotest.test_case "turns: dimension order" `Quick test_turns_dimension_order;
    ]

(* ---------------- multicore BWG construction ---------------- *)

let test_parallel_bwg_identical () =
  (* fanning the per-destination closures over domains must reproduce the
     serial graph and witness table exactly *)
  List.iter
    (fun (net, algo) ->
      let space = State_space.build net algo in
      let serial = Bwg.build space in
      let parallel = Bwg.build ~domains:4 space in
      check Alcotest.bool "same graph" true
        (Dfr_graph.Digraph.equal (Bwg.graph serial) (Bwg.graph parallel));
      Dfr_graph.Digraph.iter_edges
        (fun q w ->
          if Bwg.witnesses serial q w <> Bwg.witnesses parallel q w then
            Alcotest.failf "witness mismatch on %s -> %s"
              (Net.describe_buffer net q) (Net.describe_buffer net w))
        (Bwg.graph serial))
    [
      (cube3, Hypercube_wormhole.efa);
      (cube2, Hypercube_wormhole.efa_relaxed);
      (saf33, Mesh_saf.two_buffer);
      (Incoherent_example.network (), Incoherent_example.algo);
    ]

let test_parallel_bwg_verdict_path () =
  (* a full verdict computed from a parallel-built BWG agrees *)
  let space = State_space.build cube3 Hypercube_wormhole.efa in
  let bwg = Bwg.build ~domains:3 space in
  check Alcotest.bool "acyclic" true (Bwg.is_acyclic bwg);
  check Alcotest.bool "wait connected" true (Bwg.is_wait_connected bwg)

let suite =
  suite
  @ [
      Alcotest.test_case "parallel BWG identical to serial" `Quick
        test_parallel_bwg_identical;
      Alcotest.test_case "parallel BWG verdict path" `Quick test_parallel_bwg_verdict_path;
    ]

let test_updown_fat_tree () =
  let t = Updown.fat_tree ~levels:3 ~down_degree:2 in
  check Alcotest.int "7 nodes" 7 (Net.num_nodes t.Updown.net);
  (match Checker.verdict t.Updown.net t.Updown.algo with
  | Checker.Deadlock_free _ -> ()
  | v -> Alcotest.failf "fat tree: %a" (Checker.pp_verdict t.Updown.net) v);
  let t3 = Updown.fat_tree ~levels:3 ~down_degree:3 in
  check Alcotest.int "13 nodes" 13 (Net.num_nodes t3.Updown.net);
  match Checker.verdict t3.Updown.net t3.Updown.algo with
  | Checker.Deadlock_free _ -> ()
  | v -> Alcotest.failf "ternary fat tree: %a" (Checker.pp_verdict t3.Updown.net) v

let suite =
  suite
  @ [ Alcotest.test_case "up*/down* fat tree" `Quick test_updown_fat_tree ]

(* ---------------- scaled audit (slow) ---------------- *)

let test_scaled_audit () =
  (* the catalogue's verdicts are size-stable: re-check every entry on a
     larger topology than its default *)
  let bigger (e : Registry.entry) =
    match e.Registry.family with
    | Registry.Hypercube_family -> Some (Topology.hypercube 4)
    | Registry.Mesh_family _ | Registry.Mesh_saf_family _
    | Registry.Hop_class_family | Registry.Vct_family _ ->
      Some (Topology.mesh [| 5; 5 |])
    | Registry.Torus_family _ -> Some (Topology.torus [| 5; 5 |])
    | Registry.Fullmesh_family -> Some (Topology.fullmesh 7)
    | Registry.Dragonfly_family -> Some (Topology.dragonfly ~a:2 ~h:2 ())
    | Registry.Fattree_family -> Some (Topology.kary_ntree ~k:2 ~n:3)
    | Registry.Custom_family -> None
  in
  List.iter
    (fun (e : Registry.entry) ->
      match (e.Registry.expected_deadlock_free, bigger e) with
      | Some expected, Some topo ->
        let net = Registry.network_for e (Some topo) in
        check
          (Alcotest.option Alcotest.bool)
          (e.Registry.name ^ " scaled verdict")
          (Some expected)
          (deadlock_free (Checker.verdict net e.Registry.algo))
      | _ -> ())
    Registry.all

let suite =
  suite @ [ Alcotest.test_case "scaled audit" `Slow test_scaled_audit ]

(* ---------------- report JSON round-trip ---------------- *)

let test_report_json_roundtrip () =
  let run net algo expect_result =
    let report = Checker.check net algo in
    let s = Report_json.to_string net algo report in
    match Report_json.of_string s with
    | Error e -> Alcotest.fail e
    | Ok summary ->
      check Alcotest.string "algorithm" algo.Algo.name summary.Report_json.algorithm;
      check Alcotest.string "network" (Net.name net) summary.Report_json.network;
      check Alcotest.bool "waiting" true
        (summary.Report_json.waiting = algo.Algo.wait);
      check Alcotest.int "nodes" (Net.num_nodes net) summary.Report_json.nodes;
      check Alcotest.int "buffers" (Net.num_buffers net) summary.Report_json.buffers;
      check Alcotest.string "result" expect_result summary.Report_json.result;
      summary
  in
  (* a deadlock-free proof: Theorem recorded, no failure kind *)
  let free = run cube3 Hypercube_wormhole.ecube "deadlock-free" in
  check Alcotest.bool "theorem present" true (free.Report_json.theorem <> None);
  check (Alcotest.option Alcotest.string) "no failure kind" None
    free.Report_json.failure_kind;
  (* a deadlock verdict: failure kind and cycle inventory survive *)
  let net = Incoherent_example.network () in
  let bad = run net Incoherent_example.algo "deadlock" in
  check (Alcotest.option Alcotest.string) "failure kind" (Some "true-cycle")
    bad.Report_json.failure_kind;
  check Alcotest.bool "cycle nonempty" true (bad.Report_json.cycle <> [])

let test_report_json_rejects_garbage () =
  let fails s =
    match Report_json.of_string s with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "not json" true (fails "not json");
  check Alcotest.bool "missing fields" true (fails "{\"algorithm\":\"x\"}");
  check Alcotest.bool "bad waiting" true
    (fails
       "{\"algorithm\":\"x\",\"waiting\":\"sometimes\",\"network\":\"n\",\
        \"nodes\":1,\"buffers\":2,\"bwg\":{\"vertices\":1,\"edges\":0},\
        \"verdict\":{\"result\":\"unknown\"}}")

let suite =
  suite
  @ [
      Alcotest.test_case "report json round-trip" `Quick test_report_json_roundtrip;
      Alcotest.test_case "report json rejects garbage" `Quick
        test_report_json_rejects_garbage;
    ]

(* ---------------- Theorem-3 probe: reasons for Unknown ---------------- *)

let probe_bwg name =
  let e = Option.get (Registry.find name) in
  Bwg.build (State_space.build (Registry.network_for e None) e.Registry.algo)

let status_reason = function
  | Ok None -> "free"
  | Ok (Some _) -> "true cycle"
  | Error reason -> reason

(* With no True Cycle found, a cut-short enumeration is the reason, even
   when a classification was capped too; only an exhaustive enumeration
   whose classifications ran into their caps says so.  Both the streaming
   and the shortest-first path. *)
let test_true_cycle_status_reasons () =
  let one_cycle = { Dfr_graph.Cycles.max_cycles = 1; max_length = 64 } in
  let tiny_class =
    { Cycle_class.max_paths_per_edge = 1; max_path_length = 2; max_assignments = 1 }
  in
  (* unrestricted-mesh: the first enumerated cycle is a False Resource
     Cycle, classified exhaustively *)
  let mesh = probe_bwg "unrestricted-mesh" in
  (match Cycle_class.classify mesh (List.hd (fst (Bwg.cycles ~limits:one_cycle mesh))) with
  | Cycle_class.False_resource_cycle { exhaustive = true } -> ()
  | _ -> Alcotest.fail "expected an exhaustive False first cycle");
  (* two-buffer: 98 cycles, all enumerated; the tiny classification caps
     find no realization of any *)
  let two = probe_bwg "two-buffer" in
  List.iter
    (fun shortest_first ->
      let status ?cycle_limits ?class_limits bwg =
        status_reason
          (Reduction.true_cycle_status ?cycle_limits ?class_limits ~shortest_first bwg)
      in
      let label what = Printf.sprintf "%s (shortest_first %b)" what shortest_first in
      check Alcotest.string (label "truncated enumeration")
        "cycle enumeration truncated" (status ~cycle_limits:one_cycle mesh);
      check Alcotest.string (label "truncation outranks classification caps")
        "cycle enumeration truncated"
        (status ~cycle_limits:one_cycle ~class_limits:tiny_class mesh);
      check Alcotest.string (label "classification caps")
        "cycle classification hit its caps" (status ~class_limits:tiny_class two);
      check Alcotest.string (label "True Cycle") "true cycle" (status two))
    [ false; true ]

(* An exhausted Theorem-3 search is a deadlock verdict even when the scan
   of the full BWG was truncated: the search's probes never conclude from
   a truncated enumeration that found no True Cycle, so its Unsat is exact.
   Draw 683 of this generator stream is such a case under a 3-cycle cap;
   uncapped, the checker reaches the same verdict. *)
let test_no_reduction_under_cycle_cap () =
  let rng = Dfr_util.Prng.create (7_000_003 + 683) in
  let net, algo = Dfr_fuzz.Case.to_net_algo (Dfr_fuzz.Gen.case rng ~max_nodes:9) in
  let no_reduction ?cycle_limits () =
    match Checker.verdict ?cycle_limits net algo with
    | Checker.Deadlock_possible (Checker.No_reduction _) -> true
    | _ -> false
  in
  let capped = { Dfr_graph.Cycles.default_limits with max_cycles = 3 } in
  check Alcotest.bool "capped scan: no BWG' exists" true
    (no_reduction ~cycle_limits:capped ());
  check Alcotest.bool "uncapped: the same verdict" true (no_reduction ())

(* A length cap that cuts a branch leaves its vertex blocked as if the
   branch closed no cycle, so shorter cycles through it are missed; the
   enumeration is then not exhaustive, and "all cycles False" proves
   nothing.  This draw deadlocks through a 4-buffer True Cycle; at
   length caps 2 and 3 no enumerated cycle is True. *)
let test_length_cap_truncates () =
  let rng = Dfr_util.Prng.create 9_000_080 in
  let net, algo = Dfr_fuzz.Case.to_net_algo (Dfr_fuzz.Gen.case rng ~max_nodes:9) in
  (match Checker.verdict net algo with
  | Checker.Deadlock_possible (Checker.True_cycle { cycle; _ }) ->
    check Alcotest.int "a 4-buffer True Cycle" 4 (List.length cycle)
  | _ -> Alcotest.fail "expected a True Cycle at the default caps");
  List.iter
    (fun max_length ->
      let cycle_limits = { Dfr_graph.Cycles.max_cycles = 10_000; max_length } in
      match Checker.verdict ~cycle_limits net algo with
      | Checker.Unknown reason ->
        check Alcotest.string
          (Printf.sprintf "max_length %d" max_length)
          "cycle enumeration truncated" reason
      | v ->
        Alcotest.failf "max_length %d: %s" max_length
          (Format.asprintf "%a" (Checker.pp_verdict net) v))
    [ 2; 3 ]

(* The first 300 cycles of [bwg] *)
let first_cycles bwg =
  fst (Bwg.cycles ~limits:{ Dfr_graph.Cycles.default_limits with max_cycles = 300 } bwg)

let exhaustive_false = function
  | Cycle_class.False_resource_cycle { exhaustive } -> exhaustive
  | Cycle_class.True_cycle _ -> false

let is_true = function Cycle_class.True_cycle _ -> true | _ -> false

(* A witness list the cap cut can hide the witness every disjoint
   assignment needs, so a False verdict that read one is not exhaustive.
   [Gen.case (Prng.create 1_000_028) ~max_nodes:9] (a 2x4 wormhole mesh)
   has cycles among its first 300 that are True with every witness and
   False with one per edge: a BWG at cap 1 must call them False only
   within its caps. *)
let test_cut_witnesses_not_exhaustive () =
  let case = Dfr_fuzz.Gen.case (Dfr_util.Prng.create 1_000_028) ~max_nodes:9 in
  let net, algo = Dfr_fuzz.Case.to_net_algo case in
  let space = State_space.build net algo in
  let full = Bwg.build space in
  let capped = Bwg.build ~witness_cap:1 space in
  let hidden = ref 0 in
  List.iter
    (fun c ->
      if is_true (Cycle_class.classify full c) then
        match Cycle_class.classify capped c with
        | Cycle_class.True_cycle _ -> ()
        | Cycle_class.False_resource_cycle { exhaustive } ->
          if exhaustive then
            Alcotest.failf "%s: a True Cycle of length %d is exhaustively False at cap 1"
              case.Dfr_fuzz.Case.name (List.length c);
          incr hidden)
    (first_cycles full);
  check Alcotest.bool "some True Cycle needs a witness past cap 1" true (!hidden > 0)

(* A path enumeration cut by a cap can hide the path every disjoint
   assignment needs, so a False verdict that read one is not exhaustive.
   On the case above, path length caps 1 and 2 (passed through
   [classify ~limits]) turn 256 and 42 of its True Cycles False: only
   within their caps.  ([max_paths_per_edge] 1 hides none there.) *)
let test_cut_paths_not_exhaustive () =
  let case = Dfr_fuzz.Gen.case (Dfr_util.Prng.create 1_000_028) ~max_nodes:9 in
  let net, algo = Dfr_fuzz.Case.to_net_algo case in
  let full = Bwg.build (State_space.build net algo) in
  let cycles = first_cycles full in
  List.iter
    (fun (what, limits) ->
      let hidden = ref 0 in
      List.iter
        (fun c ->
          if is_true (Cycle_class.classify full c) then
            match Cycle_class.classify ~limits full c with
            | Cycle_class.True_cycle _ -> ()
            | Cycle_class.False_resource_cycle { exhaustive } ->
              if exhaustive then
                Alcotest.failf "%s: a True Cycle of length %d is exhaustively False" what
                  (List.length c);
              incr hidden)
        cycles;
      check Alcotest.bool (what ^ " hides some True Cycle") true (!hidden > 0))
    [
      ("path length cap 1", { Cycle_class.default_limits with Cycle_class.max_path_length = 1 });
      ("path length cap 2", { Cycle_class.default_limits with Cycle_class.max_path_length = 2 });
    ]

(* A False verdict exhaustive at witness caps 1 and 2 rests on uncut
   lists, so the default cap must agree. *)
let prop_cut_witnesses =
  QCheck.Test.make ~name:"an exhaustive False at caps 1 and 2 is False at the default cap"
    ~count:200 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case = Dfr_fuzz.Gen.case (Dfr_util.Prng.create seed) ~max_nodes:9 in
      let net, algo = Dfr_fuzz.Case.to_net_algo case in
      let space = State_space.build net algo in
      let full = Bwg.build space in
      let capped = List.map (fun cap -> Bwg.build ~witness_cap:cap space) [ 1; 2 ] in
      List.for_all
        (fun c ->
          (not (List.exists (fun b -> exhaustive_false (Cycle_class.classify b c)) capped))
          || not (is_true (Cycle_class.classify full c)))
        (first_cycles full))

let suite =
  suite
  @ [
      Alcotest.test_case "true_cycle_status: truncation vs classification caps"
        `Quick test_true_cycle_status_reasons;
      Alcotest.test_case "No_reduction survives a truncated full-BWG scan" `Quick
        test_no_reduction_under_cycle_cap;
      Alcotest.test_case "a binding length cap makes the scan non-exhaustive" `Quick
        test_length_cap_truncates;
      Alcotest.test_case "a witness list cut at cap 1 makes False non-exhaustive" `Quick
        test_cut_witnesses_not_exhaustive;
      QCheck_alcotest.to_alcotest prop_cut_witnesses;
      Alcotest.test_case "Theorem 3 hands the session back" `Quick
        test_theorem3_hands_back_session;
      Alcotest.test_case "a path enumeration cut by a cap makes False non-exhaustive" `Quick
        test_cut_paths_not_exhaustive;
    ]
