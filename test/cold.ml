(* The cold reference for a BWG' under a custom waiting rule: the
   algorithm narrowed to [wait_sets] ([Algo.with_waits]), its state space
   built afresh, and [Bwg.build] of it.  It is narrowed through the
   algorithm, while the sessions under test are narrowed with
   [Bwg.Session.remove] ([narrow]), so tests compare those sessions, and
   search results, with it. *)

open Dfr_network
open Dfr_routing
open Dfr_core
module Digraph = Dfr_graph.Digraph

(* [space]'s algorithm with [wait_sets] for its waits, built afresh *)
let narrowed ~wait_sets space =
  State_space.build (State_space.net space)
    (Algo.with_waits (State_space.algo space) (fun _ b ~dest ->
         wait_sets ~buf:(Buf.id b) ~dest))

let bwg ?witness_cap ~wait_sets space = Bwg.build ?witness_cap (narrowed ~wait_sets space)

(* [session], every entry live, narrowed to [wait_sets] with
   [Bwg.Session.remove]: each state's waits less those of [wait_sets],
   copy for copy *)
let narrow session ~wait_sets =
  let space = Bwg.Session.space session in
  State_space.iter_reachable space (fun ~buf ~dest ->
      let rec drop w = function
        | [] -> None
        | x :: rest -> if x = w then Some rest else Option.map (List.cons x) (drop w rest)
      in
      ignore
        (List.fold_left
           (fun keep w ->
             match drop w keep with
             | Some keep -> keep
             | None ->
               Bwg.Session.remove session ~buf ~dest w;
               keep)
           (wait_sets ~buf ~dest)
           (Slice_lists.waits space ~buf ~dest)
          : int list))

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
