open Dfr_network

(* Edges enter in (buffer, destination) order and, per state, in route
   order: the adjacency rows the baselines report depend on it *)
let build space =
  let net = State_space.net space in
  let g = Dfr_graph.Digraph.create (State_space.num_buffers space) in
  State_space.iter_reachable space (fun ~buf ~dest ->
      if Buf.is_transit (Net.buffer net buf) then begin
        let v = State_space.dest_view space ~dest in
        let { State_space.first; items } = v.State_space.view_outs in
        let i = State_space.index space ~buf ~dest in
        for p = first.(i) to first.(i + 1) - 1 do
          Dfr_graph.Digraph.add_edge g buf v.State_space.view_bufs.(items.(p))
        done
      end);
  g

let deadlock_free space = Dfr_graph.Traversal.is_acyclic (build space)
