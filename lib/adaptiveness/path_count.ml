open Dfr_network
open Dfr_core

exception Cyclic

(* Memoized DAG path count from [start] in the per-destination move
   graph, over local ids; colors detect cycles (gray = on the current
   stack). *)
let count_from space ~dest ~start =
  let net = State_space.net space in
  let v = State_space.dest_view space ~dest in
  let bufs = v.State_space.view_bufs in
  let { State_space.first; items } = v.State_space.view_outs in
  let memo = Array.make (Array.length bufs) (-1) in
  let gray = Array.make (Array.length bufs) false in
  let rec count i =
    if memo.(i) >= 0 then memo.(i)
    else begin
      if gray.(i) then raise Cyclic;
      gray.(i) <- true;
      let c =
        if Buf.head_node (Net.buffer net bufs.(i)) = dest then 1
        else begin
          let acc = ref 0 in
          for p = first.(i) to first.(i + 1) - 1 do
            acc := !acc + count items.(p)
          done;
          !acc
        end
      in
      gray.(i) <- false;
      memo.(i) <- c;
      c
    end
  in
  match State_space.index space ~buf:start ~dest with
  | -1 -> Some 0
  | i -> ( try Some (count i) with Cyclic -> None)

let pair_paths space ~src ~dest =
  if src = dest then Some 0
  else
    let inj = Buf.id (Net.injection (State_space.net space) src) in
    count_from space ~dest ~start:inj

let degree_of_adaptiveness ~baseline space =
  let n = State_space.num_nodes space in
  let acc = ref 0.0 in
  let pairs = ref 0 in
  let ok = ref true in
  for src = 0 to n - 1 do
    for dest = 0 to n - 1 do
      if src <> dest && !ok then
        match (pair_paths space ~src ~dest, pair_paths baseline ~src ~dest) with
        | Some p, Some t when t > 0 ->
          acc := !acc +. (float_of_int p /. float_of_int t);
          incr pairs
        | _ -> ok := false
    done
  done;
  if !ok && !pairs > 0 then Some (!acc /. float_of_int !pairs) else None
