(* Irregular networks: the conclusion's "any network topology" claim on a
   graph with no geometric structure at all.

   The network below is a small cluster fabric: two top switches, four
   leaves, hosts hanging off leaves, plus a couple of ad-hoc cross links.
   up*/down* routing (Autonet) assigns levels from a BFS spanning tree and
   forbids down-then-up transitions; the BWG checker certifies it, and the
   flit simulator drains an all-pairs workload.

   Run with: dune exec examples/irregular_network.exe *)

open Dfr_network
open Dfr_routing
open Dfr_core

let () =
  (* 0,1 = spine; 2-5 = leaves; 6-9 = hosts; 10 = a stray box wired
     straight into both a leaf and a spine *)
  let edges =
    [
      (0, 2); (0, 3); (0, 4); (1, 3); (1, 4); (1, 5);
      (2, 6); (3, 7); (4, 8); (5, 9);
      (2, 3); (* leaf-to-leaf cross link *)
      (10, 5); (10, 1);
    ]
  in
  let t = Updown.make ~num_nodes:11 ~edges ~root:0 in
  Printf.printf "levels:";
  Array.iteri (fun n l -> Printf.printf " n%d=%d" n l) t.Updown.levels;
  print_newline ();
  let report = Checker.check t.Updown.net t.Updown.algo in
  Certificate.print t.Updown.net t.Updown.algo report;
  (* liveness comes free: both routing phases strictly order the levels *)
  let space = State_space.build t.Updown.net t.Updown.algo in
  Format.printf "liveness: %a@." (Liveness.pp_result t.Updown.net)
    (Liveness.analyze space);
  (* all-pairs traffic through the fabric *)
  let n = Net.num_nodes t.Updown.net in
  let traffic = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        traffic :=
          { Dfr_sim.Traffic.src; dst; length = 8; inject_at = 0;
            mode = Dfr_sim.Traffic.Adaptive }
          :: !traffic
    done
  done;
  Format.printf "all-pairs workload: %a@." Dfr_sim.Drive.pp_outcome
    (Dfr_sim.Wormhole_sim.run t.Updown.net t.Updown.algo !traffic);
  (* contrast: plain shortest-path adaptive routing on the same graph has
     wait cycles around the fabric's loops *)
  let shortest =
    let g = Dfr_graph.Digraph.create 11 in
    List.iter
      (fun (u, v) ->
        Dfr_graph.Digraph.add_edge g u v;
        Dfr_graph.Digraph.add_edge g v u)
      edges;
    let dist = Array.init 11 (fun s -> Dfr_graph.Traversal.bfs_distances g s) in
    Algo.make ~name:"shortest-path" ~wait:Algo.Any_wait
      ~route:(fun net b ~dest ->
        let head = Buf.head_node b in
        List.filter_map
          (fun nb ->
            let nb_node = Buf.head_node nb in
            if dist.(nb_node).(dest) = dist.(head).(dest) - 1 then
              Some (Buf.id nb)
            else None)
          (Net.channels_from net head))
      ()
  in
  Format.printf "@.shortest-path adaptive on the same fabric: %a@."
    (Checker.pp_verdict t.Updown.net)
    (Checker.verdict t.Updown.net shortest)
