(* Tests for dfr_sim: traffic generation, both simulators, conservation
   laws, deadlock detection and checker-witness replay. *)

open Dfr_topology
open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_sim

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* lower bound for threshold checks; an idle run counts as 0 *)
let max_lat s = Option.value ~default:0 (Stats.max_latency s)

let cube3 = Net.wormhole (Topology.hypercube 3) ~vcs:2
let topo3 = Net.topology_exn cube3

(* ---------------- traffic ---------------- *)

let test_traffic_batch_counts () =
  let t = Traffic.batch topo3 ~pattern:Traffic.Uniform ~count:5 ~length:4 ~seed:1 in
  check Alcotest.int "5 per node" (5 * 8) (Traffic.count t);
  List.iter
    (fun (p : Traffic.packet) ->
      check Alcotest.bool "src <> dst" true (p.Traffic.src <> p.Traffic.dst);
      check Alcotest.int "inject at 0" 0 p.Traffic.inject_at)
    t

let test_traffic_generate_rate_zero () =
  let t = Traffic.generate topo3 ~pattern:Traffic.Uniform ~rate:0.0 ~length:4
      ~horizon:100 ~seed:1 in
  check Alcotest.int "no packets" 0 (Traffic.count t)

let test_traffic_deterministic () =
  let t1 = Traffic.generate topo3 ~pattern:Traffic.Uniform ~rate:0.2 ~length:4
      ~horizon:50 ~seed:9 in
  let t2 = Traffic.generate topo3 ~pattern:Traffic.Uniform ~rate:0.2 ~length:4
      ~horizon:50 ~seed:9 in
  check Alcotest.bool "same seed same workload" true (t1 = t2)

let test_traffic_patterns () =
  (* bit complement on the 3-cube: 0 <-> 7 *)
  let g = Dfr_util.Prng.create 1 in
  check (Alcotest.option Alcotest.int) "complement of 0" (Some 7)
    (Traffic.pattern_dest topo3 Traffic.Bit_complement g 0);
  check (Alcotest.option Alcotest.int) "hotspot" (Some 5)
    (Traffic.pattern_dest topo3 (Traffic.Hotspot 5) g 0);
  check (Alcotest.option Alcotest.int) "hotspot self" None
    (Traffic.pattern_dest topo3 (Traffic.Hotspot 5) g 5);
  (* transpose of a square mesh swaps coordinates *)
  let m = Topology.mesh [| 4; 4 |] in
  let n21 = Topology.node_of_coord m [| 2; 1 |] in
  let n12 = Topology.node_of_coord m [| 1; 2 |] in
  check (Alcotest.option Alcotest.int) "transpose" (Some n12)
    (Traffic.pattern_dest m Traffic.Transpose g n21)

(* Regression: OCaml's [mod] keeps the sign of its argument, so a
   negative hotspot node used to come back as a negative destination (an
   out-of-bounds injection downstream).  Out-of-range hotspots must raise
   instead, in both directions. *)
let test_traffic_hotspot_out_of_range () =
  let g = Dfr_util.Prng.create 1 in
  Alcotest.check_raises "negative hotspot"
    (Invalid_argument "Traffic: hotspot node -3 out of range 0..7") (fun () ->
      ignore (Traffic.pattern_dest topo3 (Traffic.Hotspot (-3)) g 0));
  Alcotest.check_raises "hotspot past the last node"
    (Invalid_argument "Traffic: hotspot node 8 out of range 0..7") (fun () ->
      ignore (Traffic.pattern_dest topo3 (Traffic.Hotspot 8) g 0))

let test_batch_uniform_topology_free () =
  let t = Traffic.batch_uniform ~num_nodes:5 ~count:3 ~length:4 ~seed:7 in
  check Alcotest.int "count per node" (5 * 3) (Traffic.count t);
  List.iter
    (fun (p : Traffic.packet) ->
      check Alcotest.bool "destination in range" true
        (p.Traffic.dst >= 0 && p.Traffic.dst < 5 && p.Traffic.dst <> p.Traffic.src))
    t;
  check Alcotest.bool "deterministic" true
    (t = Traffic.batch_uniform ~num_nodes:5 ~count:3 ~length:4 ~seed:7)

let test_scripted_entry_point () =
  (* the scripted chain is followed exactly: on the 2-cube under e-cube
     routing the packet may not take the adaptive channel, but a script
     can force any permitted sequence *)
  let net = Net.wormhole (Topology.hypercube 2) ~vcs:2 in
  let chain =
    [
      Buf.id (Net.channel net ~src:0 ~dim:0 ~dir:Topology.Plus ~vc:0);
      Buf.id (Net.channel net ~src:1 ~dim:1 ~dir:Topology.Plus ~vc:0);
    ]
  in
  let t = Traffic.scripted ~src:0 ~dst:3 ~length:2 chain in
  check Alcotest.int "one packet" 1 (Traffic.count t);
  match Wormhole_sim.run net Hypercube_wormhole.ecube t with
  | Wormhole_sim.Completed _ -> ()
  | o -> Alcotest.failf "scripted packet did not deliver: %a" Wormhole_sim.pp_outcome o

let prop_uniform_dest_valid =
  QCheck.Test.make ~name:"uniform destinations valid" ~count:300
    QCheck.(pair (int_range 0 7) int)
    (fun (src, seed) ->
      let g = Dfr_util.Prng.create seed in
      match Traffic.pattern_dest topo3 Traffic.Uniform g src with
      | Some d -> d >= 0 && d < 8 && d <> src
      | None -> false)

(* ---------------- stats ---------------- *)

let test_stats () =
  let s =
    { Stats.cycles = 100; injected = 5; delivered = 4; flits_delivered = 40;
      latencies = [ 10; 20; 30; 40 ] }
  in
  check (Alcotest.option (Alcotest.float 1e-9)) "mean" (Some 25.0)
    (Stats.mean_latency s);
  check (Alcotest.option Alcotest.int) "max" (Some 40) (Stats.max_latency s);
  check Alcotest.int "p95" 40 (Stats.percentile_latency s 0.95);
  (* nearest-rank: p50 of 4 samples is rank ceil(0.5*4)=2, the 2nd *)
  check Alcotest.int "p50" 20 (Stats.percentile_latency s 0.5);
  check (Alcotest.float 1e-9) "throughput" 0.05 (Stats.throughput s ~nodes:8);
  check (Alcotest.option (Alcotest.float 1e-9)) "empty mean" None
    (Stats.mean_latency Stats.empty);
  check (Alcotest.option Alcotest.int) "empty max" None
    (Stats.max_latency Stats.empty);
  check Alcotest.int "empty percentile" 0
    (Stats.percentile_latency Stats.empty 0.95)

(* regression: the percentile rank was truncating instead of nearest-rank,
   so p50 of [1;2] returned 2 and p95 over exactly 20 samples returned the
   max instead of the 19th sample *)
let test_percentile_nearest_rank () =
  let with_lat ls = { Stats.empty with latencies = ls } in
  check Alcotest.int "p50 of [1;2]" 1
    (Stats.percentile_latency (with_lat [ 1; 2 ]) 0.5);
  let twenty = List.init 20 (fun i -> i + 1) in
  check Alcotest.int "p95 of 1..20" 19
    (Stats.percentile_latency (with_lat twenty) 0.95);
  check Alcotest.int "p100 of 1..20" 20
    (Stats.percentile_latency (with_lat twenty) 1.0);
  check Alcotest.int "p0 clamps to first" 1
    (Stats.percentile_latency (with_lat twenty) 0.0);
  check Alcotest.int "singleton" 7
    (Stats.percentile_latency (with_lat [ 7 ]) 0.5)

(* ---------------- wormhole simulator ---------------- *)

let run_wh ?(seed = 1) ?(capacity = 4) net algo traffic =
  Wormhole_sim.run
    ~config:{ Wormhole_sim.default_config with seed; capacity }
    net algo traffic

(* regression: the report of an idle run (nothing delivered) used to embed
   a literal nan for the mean latency, making the whole JSON unparseable *)
let test_empty_stats_report_json () =
  let module Json = Dfr_util.Json in
  let doc = (Sim.run cube3 Hypercube_wormhole.efa []).Sim.report in
  let s = Json.to_string doc in
  (match Json.of_string s with
  | Error e -> Alcotest.failf "report does not re-parse: %s\n%s" e s
  | Ok reparsed ->
    check Alcotest.bool "round-trip preserves shape" true
      (Json.member "stats" reparsed <> None));
  check Alcotest.bool "mean latency degrades to null" true
    (match Option.bind (Json.member "stats" doc) (Json.member "mean_latency") with
    | Some Json.Null -> true
    | _ -> false)

let test_single_packet_delivery () =
  let t = [ { Traffic.src = 0; dst = 7; length = 6; inject_at = 0; mode = Traffic.Adaptive } ] in
  match run_wh cube3 Hypercube_wormhole.efa t with
  | Wormhole_sim.Completed s ->
    check Alcotest.int "delivered" 1 s.Stats.delivered;
    check Alcotest.int "flits" 6 s.Stats.flits_delivered;
    (* 3 hops + pipeline: latency at least hops + length *)
    check Alcotest.bool "latency sane" true (max_lat s >= 6 + 3)
  | o -> Alcotest.failf "expected completion, got %a" Wormhole_sim.pp_outcome o

let test_conservation_under_load () =
  let t = Traffic.batch topo3 ~pattern:Traffic.Uniform ~count:10 ~length:5 ~seed:3 in
  match run_wh cube3 Hypercube_wormhole.efa t with
  | Wormhole_sim.Completed s ->
    check Alcotest.int "all packets" (Traffic.count t) s.Stats.delivered;
    check Alcotest.int "all flits" (5 * Traffic.count t) s.Stats.flits_delivered;
    check Alcotest.int "latency per packet" s.Stats.delivered
      (List.length s.Stats.latencies)
  | o -> Alcotest.failf "expected completion, got %a" Wormhole_sim.pp_outcome o

let test_proven_algorithms_never_deadlock () =
  (* every deadlock-free verdict must survive a saturating stress batch *)
  List.iter
    (fun (name, algo) ->
      List.iter
        (fun seed ->
          let t =
            Traffic.batch topo3 ~pattern:Traffic.Uniform ~count:15 ~length:12
              ~seed
          in
          match run_wh ~seed ~capacity:2 cube3 algo t with
          | Wormhole_sim.Completed _ -> ()
          | o ->
            Alcotest.failf "%s seed %d: %a" name seed Wormhole_sim.pp_outcome o)
        [ 1; 2; 3 ])
    [
      ("ecube", Hypercube_wormhole.ecube);
      ("duato", Hypercube_wormhole.duato);
      ("efa", Hypercube_wormhole.efa);
    ]

let test_turn_models_never_deadlock () =
  let m = Topology.mesh [| 4; 4 |] in
  let net = Net.wormhole m ~vcs:1 in
  List.iter
    (fun (name, algo) ->
      let t = Traffic.batch m ~pattern:Traffic.Uniform ~count:10 ~length:8 ~seed:5 in
      match run_wh ~capacity:2 net algo t with
      | Wormhole_sim.Completed _ -> ()
      | o -> Alcotest.failf "%s: %a" name Wormhole_sim.pp_outcome o)
    [
      ("west-first", Mesh_wormhole.west_first);
      ("north-last", Mesh_wormhole.north_last);
      ("negative-first", Mesh_wormhole.negative_first);
      ("dimension-order", Mesh_wormhole.dimension_order);
    ]

let test_dateline_never_deadlocks () =
  let r = Topology.ring 6 in
  let net = Net.wormhole r ~vcs:2 in
  let t = Traffic.batch r ~pattern:Traffic.Uniform ~count:20 ~length:10 ~seed:2 in
  match run_wh ~capacity:2 net Torus_wormhole.dateline t with
  | Wormhole_sim.Completed _ -> ()
  | o -> Alcotest.failf "dateline: %a" Wormhole_sim.pp_outcome o

let test_relaxed_efa_deadlocks_under_stress () =
  let t = Traffic.batch topo3 ~pattern:Traffic.Uniform ~count:40 ~length:24 ~seed:3 in
  match run_wh ~seed:3 cube3 Hypercube_wormhole.efa_relaxed t with
  | Wormhole_sim.Deadlocked _ -> ()
  | o -> Alcotest.failf "expected deadlock, got %a" Wormhole_sim.pp_outcome o

let test_scripted_packet_follows_script () =
  (* force a packet along a specific (legal) dimension order *)
  let chan src dim dir vc = Buf.id (Net.channel cube3 ~src ~dim ~dir ~vc) in
  let script = [ chan 0 2 Topology.Plus 1; chan 4 0 Topology.Plus 1 ] in
  let t = [ { Traffic.src = 0; dst = 5; length = 3; inject_at = 0;
              mode = Traffic.Scripted script } ] in
  match run_wh cube3 Hypercube_wormhole.efa t with
  | Wormhole_sim.Completed s -> check Alcotest.int "delivered" 1 s.Stats.delivered
  | o -> Alcotest.failf "scripted run: %a" Wormhole_sim.pp_outcome o

let test_preloaded_knot_deadlocks () =
  let space = State_space.build cube3 Hypercube_wormhole.efa_relaxed in
  match Deadlock_config.find space with
  | None -> Alcotest.fail "knot expected"
  | Some config -> (
    match
      Wormhole_sim.run_preloaded cube3 Hypercube_wormhole.efa_relaxed
        (Dfr_scenario.Scenario.preloads_of_knot config)
    with
    | Wormhole_sim.Deadlocked { cycle; _ } ->
      check Alcotest.bool "detected early" true (cycle < 100)
    | o -> Alcotest.failf "expected deadlock, got %a" Wormhole_sim.pp_outcome o)

let test_preloaded_nondeadlock_drains () =
  (* a single preloaded EFA packet mid-flight simply finishes *)
  let chain = [ Buf.id (Net.channel cube3 ~src:0 ~dim:0 ~dir:Topology.Plus ~vc:1) ] in
  match
    Wormhole_sim.run_preloaded cube3 Hypercube_wormhole.efa
      [ { Wormhole_sim.chain; dest = 3; frozen = false } ]
  with
  | Wormhole_sim.Completed s -> check Alcotest.int "drained" 1 s.Stats.delivered
  | o -> Alcotest.failf "expected drain, got %a" Wormhole_sim.pp_outcome o

let test_frozen_packets_hold () =
  (* a frozen filler blocks a scripted packet forever *)
  let b = Buf.id (Net.channel cube3 ~src:0 ~dim:0 ~dir:Topology.Plus ~vc:0) in
  let preloads =
    [
      { Wormhole_sim.chain = [ b ]; dest = 1; frozen = true };
      {
        Wormhole_sim.chain =
          [ Buf.id (Net.channel cube3 ~src:2 ~dim:1 ~dir:Topology.Minus ~vc:0) ];
        dest = 1;
        frozen = false;
      };
    ]
  in
  (* the unfrozen ecube packet at node 0 needs exactly the frozen buffer *)
  match Wormhole_sim.run_preloaded cube3 Hypercube_wormhole.ecube preloads with
  | Wormhole_sim.Deadlocked { in_flight; _ } ->
    check Alcotest.int "one live packet stuck" 1 in_flight
  | o -> Alcotest.failf "expected deadlock, got %a" Wormhole_sim.pp_outcome o

let prop_wormhole_conservation =
  QCheck.Test.make ~name:"wormhole conserves packets across seeds" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let t = Traffic.batch topo3 ~pattern:Traffic.Uniform ~count:5 ~length:6 ~seed in
      match run_wh ~seed cube3 Hypercube_wormhole.efa t with
      | Wormhole_sim.Completed s ->
        s.Stats.delivered = Traffic.count t
        && s.Stats.flits_delivered = 6 * Traffic.count t
      | _ -> false)

(* ---------------- SAF simulator ---------------- *)

let mesh33 = Topology.mesh [| 3; 3 |]
let saf33 = Net.store_and_forward mesh33 ~classes:2

let test_saf_single_packet () =
  let t = [ { Traffic.src = 0; dst = 8; length = 1; inject_at = 0; mode = Traffic.Adaptive } ] in
  match Saf_sim.run saf33 Mesh_saf.two_buffer t with
  | Saf_sim.Completed s ->
    check Alcotest.int "delivered" 1 s.Stats.delivered;
    (* 4 hops + injection + consumption *)
    check Alcotest.bool "latency >= 5" true (max_lat s >= 5)
  | o -> Alcotest.failf "expected completion, got %a" Saf_sim.pp_outcome o

let test_saf_two_buffer_stress () =
  List.iter
    (fun seed ->
      let t = Traffic.batch mesh33 ~pattern:Traffic.Uniform ~count:25 ~length:1 ~seed in
      match
        Saf_sim.run ~config:{ Saf_sim.max_cycles = 100_000; seed } saf33
          Mesh_saf.two_buffer t
      with
      | Saf_sim.Completed s ->
        check Alcotest.int "all delivered" (Traffic.count t) s.Stats.delivered
      | o -> Alcotest.failf "seed %d: %a" seed Saf_sim.pp_outcome o)
    [ 1; 2; 3; 4 ]

let test_saf_single_buffer_deadlocks () =
  let net = Net.store_and_forward mesh33 ~classes:1 in
  let t = Traffic.batch mesh33 ~pattern:Traffic.Uniform ~count:30 ~length:1 ~seed:6 in
  match Saf_sim.run net Mesh_saf.single_buffer t with
  | Saf_sim.Deadlocked _ -> ()
  | o -> Alcotest.failf "expected deadlock, got %a" Saf_sim.pp_outcome o

let test_saf_hotspot_completes () =
  let t = Traffic.generate mesh33 ~pattern:(Traffic.Hotspot 4) ~rate:0.05 ~length:1
      ~horizon:400 ~seed:2 in
  match Saf_sim.run saf33 Mesh_saf.two_buffer t with
  | Saf_sim.Completed s ->
    check Alcotest.int "all delivered" (Traffic.count t) s.Stats.delivered
  | o -> Alcotest.failf "hotspot: %a" Saf_sim.pp_outcome o

(* ---------------- replay bridge ---------------- *)

let test_replay_every_deadlocking_entry () =
  (* every catalogue algorithm whose checker verdict is a deadlock must be
     confirmed dynamically by the replay bridge *)
  List.iter
    (fun (e : Registry.entry) ->
      if e.Registry.expected_deadlock_free = Some false then begin
        let net = Registry.network_for e None in
        match Checker.verdict net e.Registry.algo with
        | Checker.Deadlock_possible failure ->
          check
            (Alcotest.option Alcotest.bool)
            (e.Registry.name ^ " replay") (Some true)
            (Dfr_scenario.Scenario.replay net e.Registry.algo failure)
        | v ->
          Alcotest.failf "%s: expected deadlock verdict, got %a" e.Registry.name
            (Checker.pp_verdict net) v
      end)
    Registry.all

let suite =
  [
    Alcotest.test_case "traffic batch counts" `Quick test_traffic_batch_counts;
    Alcotest.test_case "traffic rate zero" `Quick test_traffic_generate_rate_zero;
    Alcotest.test_case "traffic deterministic" `Quick test_traffic_deterministic;
    Alcotest.test_case "traffic patterns" `Quick test_traffic_patterns;
    Alcotest.test_case "hotspot out of range raises" `Quick
      test_traffic_hotspot_out_of_range;
    Alcotest.test_case "topology-free uniform batch" `Quick
      test_batch_uniform_topology_free;
    Alcotest.test_case "scripted entry point" `Quick test_scripted_entry_point;
    Alcotest.test_case "stats accessors" `Quick test_stats;
    Alcotest.test_case "percentile nearest rank" `Quick
      test_percentile_nearest_rank;
    Alcotest.test_case "empty-stats report JSON" `Quick
      test_empty_stats_report_json;
    Alcotest.test_case "single packet delivery" `Quick test_single_packet_delivery;
    Alcotest.test_case "conservation under load" `Quick test_conservation_under_load;
    Alcotest.test_case "proven algorithms never deadlock" `Slow
      test_proven_algorithms_never_deadlock;
    Alcotest.test_case "turn models never deadlock" `Slow test_turn_models_never_deadlock;
    Alcotest.test_case "dateline never deadlocks" `Quick test_dateline_never_deadlocks;
    Alcotest.test_case "relaxed EFA deadlocks under stress" `Quick
      test_relaxed_efa_deadlocks_under_stress;
    Alcotest.test_case "scripted packet" `Quick test_scripted_packet_follows_script;
    Alcotest.test_case "preloaded knot deadlocks" `Quick test_preloaded_knot_deadlocks;
    Alcotest.test_case "preloaded non-deadlock drains" `Quick
      test_preloaded_nondeadlock_drains;
    Alcotest.test_case "frozen packets hold" `Quick test_frozen_packets_hold;
    Alcotest.test_case "saf single packet" `Quick test_saf_single_packet;
    Alcotest.test_case "saf two-buffer stress" `Quick test_saf_two_buffer_stress;
    Alcotest.test_case "saf single-buffer deadlocks" `Quick test_saf_single_buffer_deadlocks;
    Alcotest.test_case "saf hotspot completes" `Quick test_saf_hotspot_completes;
    Alcotest.test_case "replay all deadlocking entries" `Slow
      test_replay_every_deadlocking_entry;
    qtest prop_wormhole_conservation;
  ]

(* ---------------- deadlock diagnostics ---------------- *)

let test_wait_for_graph_is_cyclic () =
  (* at a detected deadlock, the packet wait-for graph restricted to
     in-flight packets must contain a cycle *)
  let t = Traffic.batch topo3 ~pattern:Traffic.Uniform ~count:40 ~length:24 ~seed:3 in
  match run_wh ~seed:3 cube3 Hypercube_wormhole.efa_relaxed t with
  | Wormhole_sim.Deadlocked { wait_for; _ } ->
    check Alcotest.bool "edges reported" true (wait_for <> []);
    let ids =
      List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) wait_for)
    in
    let index = Hashtbl.create 64 in
    List.iteri (fun i id -> Hashtbl.replace index id i) ids;
    let g = Dfr_graph.Digraph.create (List.length ids) in
    List.iter
      (fun (a, b) ->
        Dfr_graph.Digraph.add_edge g (Hashtbl.find index a) (Hashtbl.find index b))
      wait_for;
    check Alcotest.bool "wait-for graph cyclic" false
      (Dfr_graph.Traversal.is_acyclic g)
  | o -> Alcotest.failf "expected deadlock, got %a" Wormhole_sim.pp_outcome o

let suite =
  suite
  @ [
      Alcotest.test_case "wait-for graph cyclic at deadlock" `Quick
        test_wait_for_graph_is_cyclic;
    ]

(* ---------------- pipelined router simulator ---------------- *)

let test_router_single_packet () =
  let t = [ { Traffic.src = 0; dst = 7; length = 6; inject_at = 0; mode = Traffic.Adaptive } ] in
  match Router_sim.run cube3 Hypercube_wormhole.efa t with
  | Router_sim.Completed s ->
    check Alcotest.int "delivered" 1 s.Stats.delivered;
    check Alcotest.int "flits" 6 s.Stats.flits_delivered;
    (* pipeline overhead: at least RC+VA per hop on top of serialization *)
    check Alcotest.bool "latency above flit-sim floor" true
      (max_lat s >= 6 + (3 * 2))
  | o -> Alcotest.failf "expected completion, got %a" Router_sim.pp_outcome o

let test_router_conservation () =
  let t = Traffic.batch topo3 ~pattern:Traffic.Uniform ~count:8 ~length:5 ~seed:21 in
  match Router_sim.run cube3 Hypercube_wormhole.efa t with
  | Router_sim.Completed s ->
    check Alcotest.int "all packets" (Traffic.count t) s.Stats.delivered;
    check Alcotest.int "all flits" (5 * Traffic.count t) s.Stats.flits_delivered
  | o -> Alcotest.failf "expected completion, got %a" Router_sim.pp_outcome o

let test_router_proven_algorithms_complete () =
  List.iter
    (fun (name, algo) ->
      let t = Traffic.batch topo3 ~pattern:Traffic.Uniform ~count:10 ~length:8 ~seed:9 in
      match
        Router_sim.run ~config:{ Router_sim.default_config with fifo_depth = 2 }
          cube3 algo t
      with
      | Router_sim.Completed _ -> ()
      | o -> Alcotest.failf "%s: %a" name Router_sim.pp_outcome o)
    [
      ("ecube", Hypercube_wormhole.ecube);
      ("duato", Hypercube_wormhole.duato);
      ("efa", Hypercube_wormhole.efa);
    ]

let test_router_relaxed_deadlocks () =
  (* deterministic round-robin arbitration dodges the stochastic jam under
     uniform traffic; bit-complement exercises both directions of every
     dimension and wedges it reliably *)
  let t = Traffic.batch topo3 ~pattern:Traffic.Bit_complement ~count:40 ~length:32 ~seed:5 in
  match
    Router_sim.run ~config:{ Router_sim.fifo_depth = 2; max_cycles = 30_000; seed = 5 }
      cube3 Hypercube_wormhole.efa_relaxed t
  with
  | Router_sim.Deadlocked _ -> ()
  | o -> Alcotest.failf "expected deadlock, got %a" Router_sim.pp_outcome o

let test_router_agrees_with_flit_sim_on_deadlock () =
  (* both simulators must agree on the deadlock/no-deadlock outcome under
     the same adversarial batch: the certified algorithms always drain,
     the broken one wedges in both *)
  let t = Traffic.batch topo3 ~pattern:Traffic.Bit_complement ~count:40 ~length:32 ~seed:5 in
  List.iter
    (fun (algo, expect_deadlock) ->
      let r =
        Router_sim.run
          ~config:{ Router_sim.fifo_depth = 2; max_cycles = 60_000; seed = 5 }
          cube3 algo t
      in
      let w = run_wh ~seed:5 ~capacity:2 cube3 algo t in
      check Alcotest.bool
        (algo.Algo.name ^ " router outcome")
        expect_deadlock
        (Router_sim.is_deadlocked r);
      check Alcotest.bool
        (algo.Algo.name ^ " flit outcome")
        expect_deadlock
        (Wormhole_sim.is_deadlocked w))
    [
      (Hypercube_wormhole.efa, false);
      (Hypercube_wormhole.ecube, false);
      (Hypercube_wormhole.efa_relaxed, true);
    ]

let test_router_latency_dominates_flit_sim () =
  (* same single-packet run: the pipelined router is slower by construction *)
  let t = [ { Traffic.src = 0; dst = 7; length = 4; inject_at = 0; mode = Traffic.Adaptive } ] in
  let r = max_lat (Router_sim.stats (Router_sim.run cube3 Hypercube_wormhole.ecube t)) in
  let w = max_lat (Wormhole_sim.stats (run_wh cube3 Hypercube_wormhole.ecube t)) in
  check Alcotest.bool "router latency higher" true (r > w)

let suite =
  suite
  @ [
      Alcotest.test_case "router single packet" `Quick test_router_single_packet;
      Alcotest.test_case "router conservation" `Quick test_router_conservation;
      Alcotest.test_case "router proven algorithms complete" `Quick
        test_router_proven_algorithms_complete;
      Alcotest.test_case "router relaxed deadlocks" `Quick test_router_relaxed_deadlocks;
      Alcotest.test_case "router agrees with flit sim" `Quick
        test_router_agrees_with_flit_sim_on_deadlock;
      Alcotest.test_case "router latency dominates flit sim" `Quick
        test_router_latency_dominates_flit_sim;
    ]

(* ---------------- broader simulator coverage ---------------- *)

let test_router_turn_models_on_mesh () =
  let m = Topology.mesh [| 4; 4 |] in
  let net = Net.wormhole m ~vcs:1 in
  List.iter
    (fun (name, algo) ->
      let t = Traffic.batch m ~pattern:Traffic.Uniform ~count:6 ~length:6 ~seed:13 in
      match
        Router_sim.run ~config:{ Router_sim.default_config with fifo_depth = 2 }
          net algo t
      with
      | Router_sim.Completed s ->
        check Alcotest.int (name ^ " delivered") (Traffic.count t) s.Stats.delivered
      | o -> Alcotest.failf "%s: %a" name Router_sim.pp_outcome o)
    [
      ("west-first", Mesh_wormhole.west_first);
      ("odd-even", Mesh_wormhole.odd_even);
      ("dimension-order", Mesh_wormhole.dimension_order);
    ]

let test_router_planar_on_3d_mesh () =
  let m = Topology.mesh [| 3; 3; 3 |] in
  let net = Net.wormhole m ~vcs:3 in
  let t = Traffic.batch m ~pattern:Traffic.Uniform ~count:4 ~length:6 ~seed:8 in
  match Router_sim.run net Mesh_wormhole.planar_adaptive t with
  | Router_sim.Completed s ->
    check Alcotest.int "delivered" (Traffic.count t) s.Stats.delivered
  | o -> Alcotest.failf "planar-adaptive router run: %a" Router_sim.pp_outcome o

let test_router_dateline_on_ring () =
  let r = Topology.ring 6 in
  let net = Net.wormhole r ~vcs:2 in
  let t = Traffic.batch r ~pattern:Traffic.Uniform ~count:8 ~length:6 ~seed:4 in
  match Router_sim.run net Torus_wormhole.dateline t with
  | Router_sim.Completed s ->
    check Alcotest.int "delivered" (Traffic.count t) s.Stats.delivered
  | o -> Alcotest.failf "dateline router run: %a" Router_sim.pp_outcome o

let test_shuffle_pattern () =
  let g = Dfr_util.Prng.create 1 in
  (* perfect shuffle on the 8-node id space: 3 -> 6 *)
  check (Alcotest.option Alcotest.int) "3 -> 6" (Some 6)
    (Traffic.pattern_dest topo3 Traffic.Shuffle g 3);
  check (Alcotest.option Alcotest.int) "1 -> 2" (Some 2)
    (Traffic.pattern_dest topo3 Traffic.Shuffle g 1);
  (* fixed points map to None *)
  check (Alcotest.option Alcotest.int) "0 fixed" None
    (Traffic.pattern_dest topo3 Traffic.Shuffle g 0);
  check (Alcotest.option Alcotest.int) "7 fixed" None
    (Traffic.pattern_dest topo3 Traffic.Shuffle g 7)

let test_transpose_traffic_completes () =
  let t = Traffic.generate topo3 ~pattern:Traffic.Transpose ~rate:0.1 ~length:6
      ~horizon:300 ~seed:5 in
  match run_wh cube3 Hypercube_wormhole.efa t with
  | Wormhole_sim.Completed s ->
    check Alcotest.int "delivered" (Traffic.count t) s.Stats.delivered
  | o -> Alcotest.failf "transpose: %a" Wormhole_sim.pp_outcome o

let test_staggered_injection_times () =
  (* inject_at is honoured: a packet scheduled late cannot finish early *)
  let t =
    [
      { Traffic.src = 0; dst = 7; length = 4; inject_at = 100; mode = Traffic.Adaptive };
    ]
  in
  match run_wh cube3 Hypercube_wormhole.efa t with
  | Wormhole_sim.Completed s ->
    check Alcotest.bool "total cycles past injection time" true (s.Stats.cycles >= 100)
  | o -> Alcotest.failf "staggered: %a" Wormhole_sim.pp_outcome o

let suite =
  suite
  @ [
      Alcotest.test_case "router turn models on mesh" `Quick
        test_router_turn_models_on_mesh;
      Alcotest.test_case "router planar-adaptive 3-D" `Quick test_router_planar_on_3d_mesh;
      Alcotest.test_case "router dateline on ring" `Quick test_router_dateline_on_ring;
      Alcotest.test_case "shuffle pattern" `Quick test_shuffle_pattern;
      Alcotest.test_case "transpose traffic completes" `Quick
        test_transpose_traffic_completes;
      Alcotest.test_case "staggered injection times" `Quick test_staggered_injection_times;
    ]
