open Dfr_topology
open Dfr_network

type result = {
  livelock_free : bool;
  offending_dest : int option;
  cycle : int list option;
}

let analyze space =
  let rec scan dest =
    if dest >= State_space.num_nodes space then
      { livelock_free = true; offending_dest = None; cycle = None }
    else
      let v = State_space.dest_view space ~dest in
      match Dfr_graph.Traversal.find_cycle_csr v.State_space.view_moves with
      | Some cycle ->
        let cycle = List.map (Array.get v.State_space.view_bufs) cycle in
        { livelock_free = false; offending_dest = Some dest; cycle = Some cycle }
      | None -> scan (dest + 1)
  in
  scan 0

let livelock_free space = (analyze space).livelock_free

let is_minimal space =
  match Net.topology (State_space.net space) with
  | None -> false
  | Some topo ->
    let net = State_space.net space in
    let node buf = Buf.head_node (Net.buffer net buf) in
    let ok = ref true in
    for dest = 0 to State_space.num_nodes space - 1 do
      let v = State_space.dest_view space ~dest in
      let bufs = v.State_space.view_bufs in
      let { State_space.first; items } = v.State_space.view_outs in
      Array.iteri
        (fun i buf ->
          (* an arrived state has no outputs *)
          if first.(i) < first.(i + 1) then begin
            let here = node buf in
            let d = Topology.distance topo here dest in
            for p = first.(i) to first.(i + 1) - 1 do
              let next = node bufs.(items.(p)) in
              (* same-node transfers (injection entry, buffer-class change)
                 are distance-neutral and allowed *)
              if next <> here && Topology.distance topo next dest <> d - 1 then
                ok := false
            done
          end)
        bufs
    done;
    !ok

let pp_result net fmt r =
  if r.livelock_free then Format.pp_print_string fmt "livelock-free"
  else
    match (r.offending_dest, r.cycle) with
    | Some dest, Some cycle ->
      Format.fprintf fmt "possible livelock toward n%d: %s" dest
        (String.concat " -> " (List.map (Net.describe_buffer net) cycle))
    | _ -> Format.pp_print_string fmt "possible livelock"
