(* A state's rows as lists of buffer ids ([[]] for an unreachable
   state), for the tests that compare the state table with routing
   functions and list-shaped references. *)

open Dfr_core

let lookup pick space ~buf ~dest =
  match State_space.index space ~buf ~dest with
  | -1 -> []
  | i -> pick (State_space.dest_view space ~dest) i

(* transit outputs, in route order *)
let outputs =
  lookup (fun v i ->
      List.map (Array.get v.State_space.view_bufs) (State_space.row v.State_space.view_outs i))

(* waits, in rule order *)
let waits = lookup (fun v i -> State_space.row v.State_space.view_wts i)

(* the BWG' hint filtered to reachable states, if the algorithm has one *)
let hint space =
  match (State_space.algo space).Dfr_routing.Algo.reduced_waits with
  | None -> None
  | Some _ ->
    Some
      (lookup
         (fun v i ->
           match v.State_space.view_hint with
           | Some rows -> State_space.row rows i
           | None -> [])
         space)
