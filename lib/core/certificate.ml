open Dfr_network
open Dfr_routing

let describe net b = Net.describe_buffer net b

let pp_packets net buf packets =
  List.iteri
    (fun i (p : Cycle_class.packet) ->
      Buffer.add_string buf
        (Printf.sprintf "    p%d -> n%d  occupies [%s]  waits for %s\n" (i + 1)
           p.Cycle_class.dest
           (String.concat "; " (List.map (describe net) p.Cycle_class.path))
           (describe net p.Cycle_class.waits_for)))
    packets

let render net algo (report : Checker.report) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let space = report.Checker.space in
  let bwg = report.Checker.bwg in
  let g = Bwg.graph bwg in
  line "DEADLOCK-FREEDOM CERTIFICATE";
  line "============================";
  line "algorithm : %s (%s waiting)" algo.Algo.name
    (match algo.Algo.wait with
    | Algo.Specific_wait -> "committed single-buffer"
    | Algo.Any_wait -> "first-free multi-buffer");
  line "network   : %s (%d nodes, %d buffers)" (Net.name net) (Net.num_nodes net)
    (Net.num_buffers net);
  line "states    : %d reachable (buffer, destination) pairs" (State_space.num_states space);
  line "BWG       : %d vertices, %d waiting edges"
    (Dfr_graph.Digraph.num_vertices g)
    (Dfr_graph.Digraph.num_edges g);
  (match report.Checker.bwg_cycles with
  | Some n -> line "cycles    : %d elementary cycles enumerated" n
  | None -> ());
  line "liveness  : %s%s"
    (if Liveness.livelock_free space then "livelock-free"
     else "livelock possible (deadlock analysis is independent, cf. paper s2)")
    (if Liveness.is_minimal space then ", minimal routing" else "");
  line "";
  (match report.Checker.verdict with
  | Checker.Deadlock_free Checker.Acyclic_bwg ->
    line "VERDICT: DEADLOCK-FREE  (Theorem 1)";
    line "";
    line "The waiting rule is wait-connected (every blocked packet always has";
    line "a buffer to wait on) and the buffer waiting graph is acyclic, so no";
    line "set of packets can mutually block.  A linear ordering witnessing";
    line "acyclicity:";
    (match Bwg.topological_order bwg with
    | Some order ->
      let transit =
        List.filter (fun b -> Buf.is_transit (Net.buffer net b)) order
      in
      let shown = List.filteri (fun i _ -> i < 12) transit in
      line "  %s%s"
        (String.concat " < " (List.map (describe net) shown))
        (if List.length transit > 12 then
           Printf.sprintf " < ... (%d buffers total)" (List.length transit)
         else "")
    | None -> line "  (internal error: order missing)")
  | Checker.Deadlock_free (Checker.No_true_cycles { cycles_examined }) ->
    line "VERDICT: DEADLOCK-FREE  (Theorems 2/3, all cycles False)";
    line "";
    line "The BWG contains %d elementary cycle(s), every one of which is a"
      cycles_examined;
    line "False Resource Cycle: creating it would require one buffer to be";
    line "occupied by two packets at once, which is physically impossible.";
    line "By the necessary-and-sufficient condition the algorithm is";
    line "deadlock-free."
  | Checker.Deadlock_free (Checker.Reduced_bwg { via_hint; removed }) ->
    line "VERDICT: DEADLOCK-FREE  (Theorem 3, reduced waiting graph)";
    line "";
    line "The full BWG has a True Cycle, but a wait-connected subgraph BWG'";
    line "without True Cycles exists (%s)."
      (if via_hint then "the algorithm's declarative hint, verified"
       else "found by the automatic reduction search");
    if removed <> [] then begin
      line "Waiting options dropped to form BWG':";
      List.iter
        (fun (r : Reduction.removed) ->
          line "  a packet for n%d blocked in %s no longer waits on %s"
            r.Reduction.dest (describe net r.Reduction.head)
            (describe net r.Reduction.target))
        removed
    end
  | Checker.Deadlock_possible (Checker.Stuck_states states) ->
    line "VERDICT: BROKEN ROUTING RELATION";
    line "";
    line "These reachable states have no permitted output at all:";
    List.iter
      (fun (b, d) -> line "  %s holding a packet for n%d" (describe net b) d)
      states
  | Checker.Deadlock_possible (Checker.Not_wait_connected states) ->
    line "VERDICT: DEADLOCK (not wait-connected)";
    line "";
    line "A blocked packet in these states has nothing to wait on:";
    List.iter
      (fun (b, d) -> line "  %s holding a packet for n%d" (describe net b) d)
      states
  | Checker.Deadlock_possible (Checker.Knot config) ->
    line "VERDICT: DEADLOCK  (mutually blocking configuration)";
    line "";
    line "Seat the following %d packets; every permitted output of every one"
      (List.length config);
    line "is then occupied by another member, so none can ever move:";
    List.iter
      (fun (b, d) -> line "  %s holds a packet destined n%d" (describe net b) d)
      config
  | Checker.Deadlock_possible (Checker.True_cycle { cycle; packets }) ->
    line "VERDICT: DEADLOCK  (Theorem 2, True Cycle)";
    line "";
    line "Waiting cycle: %s" (String.concat " -> " (List.map (describe net) cycle));
    line "Witness packets (each waits on a buffer the next one occupies):";
    pp_packets net buf packets
  | Checker.Deadlock_possible (Checker.No_reduction { cycle; packets }) ->
    line "VERDICT: DEADLOCK  (Theorem 3, no BWG' exists)";
    line "";
    line "Every wait-connected reduction of the waiting rule keeps a True";
    line "Cycle; for example: %s"
      (String.concat " -> " (List.map (describe net) cycle));
    pp_packets net buf packets
  | Checker.Unknown reason ->
    line "VERDICT: UNKNOWN";
    line "";
    line "The decision procedure hit a resource cap: %s." reason;
    line "(The problem is worst-case exponential; raise the caps to retry.)");
  Buffer.contents buf

let print net algo report = print_string (render net algo report)
