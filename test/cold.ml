(* The cold reference for a BWG' under a custom waiting rule: every
   destination's emissions ([Bwg.dest_edges] under [wait_sets]) replayed,
   destinations ascending, through the recorder [Bwg.build] uses.  Tests
   compare wait-set sessions and search results with it. *)

open Dfr_core
module Digraph = Dfr_graph.Digraph

let bwg ?witness_cap ~wait_sets space =
  Bwg.replay ?witness_cap ~wait_sets space (fun emit ->
      for dest = 0 to State_space.num_nodes space - 1 do
        Bwg.dest_edges ~wait_sets space ~dest ~emit
      done)

(* [None] when [got] has [want]'s edge set and every edge's witness
   list; otherwise what differs *)
let diff ~want ~got =
  let gw = Bwg.graph want and gg = Bwg.graph got in
  if not (Digraph.equal gw gg) then
    Some
      (Printf.sprintf "edge sets differ (%d vs %d edges)" (Digraph.num_edges gw)
         (Digraph.num_edges gg))
  else
    Digraph.fold_edges
      (fun q1 q2 acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if Bwg.witnesses want q1 q2 = Bwg.witnesses got q1 q2 then None
          else Some (Printf.sprintf "witnesses of %d->%d differ" q1 q2))
      gw None
