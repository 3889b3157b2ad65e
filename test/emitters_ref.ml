(* The set reference for [Bwg.Session.emitters]: the continuation DFS the
   Theorem-3 search ran for every edge cut before the session's groups
   served it, kept unchanged apart from qualified names.  [current] gives
   the live waiting sets.  Its heads come in the fold order of a table
   keyed by buffer, which depends on the hash function, so a caller that
   wants the reader's order sorts them ({!in_witness_order}). *)

open Dfr_network
open Dfr_core

(* Wait entries that generate BWG edge q -> w: pairs (head, dest) with
   [w] in the current waiting set of (head, dest) and [head] reachable
   from [q] by a continuation (wormhole) or equal to [q] (SAF/VCT).
   Destinations ascend. *)
let generating_entries space current ~wormhole q w =
  let acc = ref [] in
  for dest = 0 to State_space.num_nodes space - 1 do
    let i = State_space.index space ~buf:q ~dest in
    if i >= 0 then begin
      let heads =
        if wormhole then
          let v = State_space.dest_view space ~dest in
          let seen = Hashtbl.create 16 in
          let rec dfs i =
            let b = v.State_space.view_bufs.(i) in
            if not (Hashtbl.mem seen b) then begin
              Hashtbl.replace seen b ();
              Dfr_graph.Csr.iter_succ dfs v.State_space.view_moves i
            end
          in
          dfs i;
          Hashtbl.fold (fun b () l -> b :: l) seen []
        else [ q ]
      in
      List.iter
        (fun h -> if List.mem w (current ~buf:h ~dest) then acc := (h, dest) :: !acc)
        heads
    end
  done;
  List.rev !acc

(* the same pairs in witness order: destinations ascending, then heads *)
let in_witness_order space current q w =
  let wormhole = Net.switching (State_space.net space) = Net.Wormhole in
  List.sort
    (fun (h, d) (h', d') -> compare (d, h) (d', h'))
    (generating_entries space current ~wormhole q w)
