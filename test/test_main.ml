(* Aggregate test runner: `dune runtest`. *)

let () =
  Alcotest.run "dfr"
    [
      ("util", Test_util.suite);
      ("graph", Test_graph.suite);
      ("topology", Test_topology.suite);
      ("network", Test_network.suite);
      ("routing", Test_routing.suite);
      ("core", Test_core.suite);
      ("closure", Test_closure.suite);
      ("determinism", Test_determinism.suite);
      ("incoherent-example", Test_incoherent.suite);
      ("spec", Test_spec.suite);
      ("adaptiveness", Test_adaptiveness.suite);
      ("sim", Test_sim.suite);
      ("obs", Test_obs.suite);
      ("fuzz", Test_fuzz.suite);
      ("differential", Test_differential.suite);
      ("serve", Test_serve.suite);
      ("incr", Test_incr.suite);
      ("synth", Test_synth.suite);
      ("scenario", Test_scenario.suite);
    ]
