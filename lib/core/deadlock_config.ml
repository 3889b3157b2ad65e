open Dfr_network

type t = (int * int) list

(* Start from every reachable, unarrived transit state with an output
   and repeatedly discard states with an output outside the currently
   occupied buffer set; the survivors (if any) are mutually blocking.
   The survivor set is a greatest fixed point, so it does not depend on
   the order states are discarded in: one flag per slice position (at
   [base.(dest) + i]) and one count of surviving states per buffer,
   swept until a sweep discards nothing. *)
let find space =
  let num_nodes = State_space.num_nodes space in
  let net = State_space.net space in
  let view dest = State_space.dest_view space ~dest in
  let base = Array.make (num_nodes + 1) 0 in
  for dest = 0 to num_nodes - 1 do
    base.(dest + 1) <- base.(dest) + Array.length (view dest).State_space.view_bufs
  done;
  let alive = Bytes.make base.(num_nodes) '\000' in
  let per_buffer = Array.make (State_space.num_buffers space) 0 in
  for dest = 0 to num_nodes - 1 do
    let v = view dest in
    let first = v.State_space.view_outs.State_space.first in
    Array.iteri
      (fun i buf ->
        (* an arrived state has no outputs *)
        if first.(i) < first.(i + 1) && Buf.is_transit (Net.buffer net buf) then begin
          Bytes.set alive (base.(dest) + i) '\001';
          per_buffer.(buf) <- per_buffer.(buf) + 1
        end)
      v.State_space.view_bufs
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for dest = 0 to num_nodes - 1 do
      let v = view dest in
      let bufs = v.State_space.view_bufs in
      let { State_space.first; items } = v.State_space.view_outs in
      for i = 0 to Array.length bufs - 1 do
        let at = base.(dest) + i in
        if Bytes.get alive at <> '\000' then begin
          let blocked = ref true in
          for p = first.(i) to first.(i + 1) - 1 do
            if per_buffer.(bufs.(items.(p))) = 0 then blocked := false
          done;
          if not !blocked then begin
            Bytes.set alive at '\000';
            per_buffer.(bufs.(i)) <- per_buffer.(bufs.(i)) - 1;
            changed := true
          end
        end
      done
    done
  done;
  (* one packet per occupied buffer: its lowest surviving dest, which
     the ascending sweep meets first *)
  let chosen = Array.make (State_space.num_buffers space) (-1) in
  for dest = 0 to num_nodes - 1 do
    Array.iteri
      (fun i buf ->
        if Bytes.get alive (base.(dest) + i) <> '\000' && chosen.(buf) < 0 then
          chosen.(buf) <- dest)
      (view dest).State_space.view_bufs
  done;
  let config = ref [] in
  for buf = Array.length chosen - 1 downto 0 do
    if chosen.(buf) >= 0 then config := (buf, chosen.(buf)) :: !config
  done;
  if !config = [] then None else Some !config

(* reachable state (buf, dest) has a transit output, and every one is
   in [bufs] *)
let blocked_in space bufs ~buf ~dest =
  let i = State_space.index space ~buf ~dest in
  i >= 0
  &&
  let v = State_space.dest_view space ~dest in
  let { State_space.first; items } = v.State_space.view_outs in
  let ok = ref (first.(i) < first.(i + 1)) in
  for p = first.(i) to first.(i + 1) - 1 do
    if not (List.mem v.State_space.view_bufs.(items.(p)) bufs) then ok := false
  done;
  !ok

let verify space config =
  let net = State_space.net space in
  let bufs = List.map fst config in
  let distinct =
    List.length (List.sort_uniq compare bufs) = List.length bufs
  in
  distinct && config <> []
  && List.for_all
       (fun (buf, dest) ->
         Buf.is_transit (Net.buffer net buf)
         && (not (State_space.arrived space ~buf ~dest))
         && blocked_in space bufs ~buf ~dest)
       config
