(* The parallel paths (Bwg.build ~domains, Checker's classification scan)
   must be bit-for-bit identical to their serial counterparts: same graph,
   same witness lists in the same order, same verdict with the same
   witness cycle.  DESIGN.md "Graph core architecture" explains why the
   merge orders make this hold; these tests pin it. *)

open Dfr_topology
open Dfr_network
open Dfr_routing
open Dfr_core

let check = Alcotest.check

(* The pool clamps in-flight indices to the core count, so on a 1-core
   CI machine ~domains:4 would silently degrade to ordered serial
   execution and these differentials would stop exercising real
   concurrency.  Force the cap up for the duration of each test. *)
let with_cap n f =
  Dfr_util.Domain_pool.set_cap (Some n);
  Fun.protect ~finally:(fun () -> Dfr_util.Domain_pool.set_cap None) f

let cube2 = Net.wormhole (Topology.hypercube 2) ~vcs:2
let cube3 = Net.wormhole (Topology.hypercube 3) ~vcs:2
let saf33 = Net.store_and_forward (Topology.mesh [| 3; 3 |]) ~classes:2

(* graph + every edge's witness list, serial vs ~domains *)
let check_build_identical name net algo =
  with_cap 4 @@ fun () ->
  let space = State_space.build net algo in
  let serial = Bwg.build space in
  let parallel = Bwg.build ~domains:4 space in
  let gs = Bwg.graph serial and gp = Bwg.graph parallel in
  check Alcotest.bool (name ^ ": same graph") true (Dfr_graph.Digraph.equal gs gp);
  Dfr_graph.Digraph.iter_edges
    (fun q1 q2 ->
      if Bwg.witnesses serial q1 q2 <> Bwg.witnesses parallel q1 q2 then
        Alcotest.failf "%s: witnesses of %d->%d differ" name q1 q2)
    gs

let test_build_efa_relaxed () =
  (* cyclic wormhole BWG: exercises the closure path and the Tarjan
     fallback inside it *)
  check_build_identical "efa-relaxed 2-cube" cube2 Hypercube_wormhole.efa_relaxed

let test_build_efa_3cube () =
  check_build_identical "efa 3-cube" cube3 Hypercube_wormhole.efa

let test_build_saf () =
  (* store-and-forward: the non-wormhole emit path *)
  check_build_identical "two-buffer 3x3" saf33 Mesh_saf.two_buffer

let test_build_domains_exceed_dests () =
  (* more domains than destinations: chunking must still cover them all *)
  let space = State_space.build cube2 Hypercube_wormhole.efa_relaxed in
  let serial = Bwg.build space in
  let parallel = Bwg.build ~domains:16 space in
  check Alcotest.bool "same graph" true
    (Dfr_graph.Digraph.equal (Bwg.graph serial) (Bwg.graph parallel))

(* the classification scan must report the same True Cycle — the one of
   minimal index in shortest-first order — no matter how many domains
   race over the cycle list *)
let check_verdict_identical name net algo =
  with_cap 4 @@ fun () ->
  let serial = Checker.verdict net algo in
  let parallel = Checker.verdict ~domains:4 net algo in
  if serial <> parallel then Alcotest.failf "%s: verdicts differ" name

let test_verdict_efa_relaxed () =
  check_verdict_identical "efa-relaxed 2-cube" cube2 Hypercube_wormhole.efa_relaxed

let test_verdict_efa_3cube () =
  check_verdict_identical "efa 3-cube" cube3 Hypercube_wormhole.efa

let test_verdict_registry () =
  (* every registered algorithm on its smallest network *)
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      check_verdict_identical e.Registry.name net e.Registry.algo)
    Registry.all

(* ---- the phases parallelized by the domain pool, individually ---- *)

(* State_space.build validates reachable states inside its
   per-destination BFS and raises once, after every destination: the
   rejection must list the problems in the same (buffer, dest) order
   however the destinations were chunked *)
let test_validate_parallel () =
  with_cap 4 @@ fun () ->
  (* a broken relation: every buffer misroutes, so each injection state
     is malformed and the message interleaves problems from every
     destination — any merge-order slip shows up *)
  let broken =
    Algo.make ~name:"broken" ~wait:Algo.Any_wait
      ~route:(fun _ b ~dest:_ -> [ Buf.id b ])
      ()
  in
  let message d =
    match State_space.build ~domains:d cube2 broken with
    | _ -> Alcotest.failf "broken algo accepted at domains=%d" d
    | exception Invalid_argument msg -> msg
  in
  let serial = message 1 in
  List.iter
    (fun d ->
      check Alcotest.string
        (Printf.sprintf "broken: error string at domains=%d" d)
        serial (message d))
    [ 2; 4 ]

(* the state space itself: reachability, outputs and waits per
   (buffer, dest) must match the serial build *)
let check_space_identical name net algo =
  with_cap 4 @@ fun () ->
  let s1 = State_space.build ~domains:1 net algo in
  let s4 = State_space.build ~domains:4 net algo in
  for buf = 0 to State_space.num_buffers s1 - 1 do
    for dest = 0 to State_space.num_nodes s1 - 1 do
      if
        State_space.is_reachable s1 ~buf ~dest
        <> State_space.is_reachable s4 ~buf ~dest
        || State_space.outputs s1 ~buf ~dest
           <> State_space.outputs s4 ~buf ~dest
        || State_space.waits s1 ~buf ~dest <> State_space.waits s4 ~buf ~dest
      then Alcotest.failf "%s: state (%d, %d) differs" name buf dest
    done
  done;
  check Alcotest.bool (name ^ ": same stuck states") true
    (State_space.stuck_states s1 = State_space.stuck_states s4)

(* the parallel build from the state space through the BWG over it, once
   with the closure rows forced into the dense bitmap representation and
   once with the default hybrid sparse/dense rows *)
let check_parallel_build name ~dense_closures net algo =
  check_space_identical name net algo;
  with_cap 4 @@ fun () ->
  let serial = Bwg.build ~dense_closures (State_space.build ~domains:1 net algo) in
  let parallel =
    Bwg.build ~domains:4 ~dense_closures (State_space.build ~domains:4 net algo)
  in
  let gs = Bwg.graph serial in
  check Alcotest.bool (name ^ ": same graph") true
    (Dfr_graph.Digraph.equal gs (Bwg.graph parallel));
  Dfr_graph.Digraph.iter_edges
    (fun q1 q2 ->
      if Bwg.witnesses serial q1 q2 <> Bwg.witnesses parallel q1 q2 then
        Alcotest.failf "%s: witnesses of %d->%d differ" name q1 q2)
    gs

let test_space_dense () =
  check_parallel_build "dense efa 3-cube" ~dense_closures:true cube3
    Hypercube_wormhole.efa

let test_space_sparse () =
  check_parallel_build "sparse efa 3-cube" ~dense_closures:false cube3
    Hypercube_wormhole.efa;
  check_parallel_build "sparse two-buffer 3x3" ~dense_closures:false saf33
    Mesh_saf.two_buffer

(* ---- scratch hygiene: each domain's BFS scratch outlives a raise ---- *)

(* [algo] whose BFS raises at the first channel state it routes, once the
   destination's injection states are routed and their outputs seen *)
let raising (algo : Algo.t) =
  {
    algo with
    Algo.route =
      (fun net b ~dest ->
        if Buf.is_injection b then algo.Algo.route net b ~dest else failwith "planted");
  }

let same_slices label want got =
  for dest = 0 to State_space.num_nodes want - 1 do
    if State_space.dest_view want ~dest <> State_space.dest_view got ~dest then
      Alcotest.failf "%s: destination %d's slice differs from a fresh build" label dest
  done

(* A routing function that raises mid-BFS, in a cold build (every
   domain's first destination raises) and in a slice rebuild (on the
   caller and a pool worker), must leave every domain's scratch as a
   fresh one: the next build and rebuild on those domains equal a build
   in a domain that never ran one. *)
let test_space_raise_mid_bfs () =
  with_cap 2 @@ fun () ->
  let net = cube3 and algo = Hypercube_wormhole.efa in
  let fresh = Domain.join (Domain.spawn (fun () -> State_space.build net algo)) in
  let planted = Failure "planted" in
  List.iter
    (fun domains ->
      let label what = Printf.sprintf "domains %d: %s" domains what in
      Alcotest.check_raises (label "the build raises") planted (fun () ->
          ignore (State_space.build ~domains net (raising algo) : State_space.t));
      let space = State_space.build ~domains net algo in
      same_slices (label "build after a raising build") fresh space;
      Dfr_util.Domain_pool.parallel ~domains (fun _ ->
          Alcotest.check_raises (label "the edit raises") planted (fun () ->
              ignore
                (State_space.with_updated_dests space (raising algo) ~dests:[ 1; 6 ]
                  : State_space.t)));
      same_slices (label "edit after a raising edit") fresh
        (State_space.with_updated_dests space algo ~dests:[ 1; 6 ]);
      same_slices (label "build after a raising edit") fresh
        (State_space.build ~domains net algo))
    [ 1; 2 ]

(* ---- end to end: the whole catalogue, byte for byte ---- *)

let report_bytes ~domains net algo =
  Report_json.to_string net algo (Checker.check ~domains net algo)

let test_report_catalogue () =
  with_cap 4 @@ fun () ->
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      let reference = report_bytes ~domains:1 net e.Registry.algo in
      List.iter
        (fun d ->
          check Alcotest.string
            (Printf.sprintf "%s: report bytes at domains=%d" e.Registry.name d)
            reference
            (report_bytes ~domains:d net e.Registry.algo))
        [ 2; 4 ])
    Registry.all

(* no hand-picked structure: random routing relations from the fuzzer's
   generator must also report identically across domain counts *)
let prop_report_domains_invariant =
  QCheck.Test.make ~name:"random cases report identically across domains"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      with_cap 4 @@ fun () ->
      let rng = Dfr_util.Prng.create seed in
      let case = Dfr_fuzz.Gen.case rng ~max_nodes:8 in
      let net, algo = Dfr_fuzz.Case.to_net_algo case in
      let reference = report_bytes ~domains:1 net algo in
      List.for_all
        (fun d -> report_bytes ~domains:d net algo = reference)
        [ 2; 4 ])

let suite =
  [
    Alcotest.test_case "build: efa-relaxed 2-cube" `Quick test_build_efa_relaxed;
    Alcotest.test_case "build: efa 3-cube" `Quick test_build_efa_3cube;
    Alcotest.test_case "build: store-and-forward" `Quick test_build_saf;
    Alcotest.test_case "build: domains > dests" `Quick test_build_domains_exceed_dests;
    Alcotest.test_case "verdict: efa-relaxed 2-cube" `Quick test_verdict_efa_relaxed;
    Alcotest.test_case "verdict: efa 3-cube" `Quick test_verdict_efa_3cube;
    Alcotest.test_case "verdict: registry sweep" `Slow test_verdict_registry;
    Alcotest.test_case "validate: parallel sweep" `Quick test_validate_parallel;
    Alcotest.test_case "space: dense parallel build" `Quick test_space_dense;
    Alcotest.test_case "space: sparse parallel build" `Quick test_space_sparse;
    Alcotest.test_case "reports: catalogue across domains" `Slow
      test_report_catalogue;
    QCheck_alcotest.to_alcotest prop_report_domains_invariant;
    Alcotest.test_case "space: a raising route leaves clean scratch" `Quick
      test_space_raise_mid_bfs;
  ]
