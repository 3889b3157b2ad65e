open Dfr_topology
open Dfr_network

type turn = {
  from_dim : int;
  from_dir : Topology.direction;
  to_dim : int;
  to_dir : Topology.direction;
}

let all_turns ~dims =
  let dirs = [ Topology.Plus; Topology.Minus ] in
  List.concat_map
    (fun from_dim ->
      List.concat_map
        (fun to_dim ->
          if to_dim = from_dim then []
          else
            List.concat_map
              (fun from_dir ->
                List.map
                  (fun to_dir -> { from_dim; from_dir; to_dim; to_dir })
                  dirs)
              dirs)
        (List.init dims Fun.id))
    (List.init dims Fun.id)

(* [b] is a channel of the turn's first leg (entering [node], if given) *)
let enters net turn ~node b =
  match Buf.kind (Net.buffer net b) with
  | Buf.Channel { dim; dir; dst; _ } ->
    dim = turn.from_dim && dir = turn.from_dir
    && (match node with None -> true | Some n -> dst = n)
  | _ -> false

(* [o] is a channel of the turn's second leg *)
let leaves net turn o =
  match Buf.kind (Net.buffer net o) with
  | Buf.Channel { dim; dir; _ } -> dim = turn.to_dim && dir = turn.to_dir
  | _ -> false

let search space ~node turn =
  let net = State_space.net space in
  let found = ref false in
  for dest = 0 to State_space.num_nodes space - 1 do
    let v = State_space.dest_view space ~dest in
    let bufs = v.State_space.view_bufs in
    let { State_space.first; items } = v.State_space.view_outs in
    Array.iteri
      (fun i buf ->
        if (not !found) && enters net turn ~node buf then
          for p = first.(i) to first.(i + 1) - 1 do
            if leaves net turn bufs.(items.(p)) then found := true
          done)
      bufs
  done;
  !found

let permitted space turn = search space ~node:None turn
let permitted_at space ~node turn = search space ~node:(Some node) turn

let turn_set space =
  let dims =
    match Net.topology (State_space.net space) with
    | Some topo -> Topology.dimensions topo
    | None -> invalid_arg "Turns.turn_set: custom network"
  in
  List.map (fun t -> (t, permitted space t)) (all_turns ~dims)

let pp_turn fmt t =
  Format.fprintf fmt "%d%a -> %d%a" t.from_dim Topology.pp_direction t.from_dir
    t.to_dim Topology.pp_direction t.to_dir
