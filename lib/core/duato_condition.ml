let escape_channels space =
  let escape = Array.make (State_space.num_buffers space) false in
  for dest = 0 to State_space.num_nodes space - 1 do
    Array.iter
      (fun w -> escape.(w) <- true)
      (State_space.dest_view space ~dest).State_space.view_wts.State_space.items
  done;
  escape

let extended_dependency_graph space =
  let escape = escape_channels space in
  let n = State_space.num_buffers space in
  let g = Dfr_graph.Digraph.create n in
  for dest = 0 to State_space.num_nodes space - 1 do
    let v = State_space.dest_view space ~dest in
    let bufs = v.State_space.view_bufs in
    (* From escape channel bufs.(i), walk through adaptive buffers only and
       record every escape channel usable along the way. *)
    let from_escape i =
      let seen = Hashtbl.create 16 in
      let rec walk u =
        Dfr_graph.Csr.iter_succ
          (fun w ->
            if escape.(bufs.(w)) then Dfr_graph.Digraph.add_edge g bufs.(i) bufs.(w)
            else if not (Hashtbl.mem seen w) then begin
              Hashtbl.replace seen w ();
              walk w
            end)
          v.State_space.view_moves u
      in
      walk i
    in
    Array.iteri (fun i b -> if escape.(b) then from_escape i) bufs
  done;
  g

type result = { certified : bool; connected : bool; acyclic : bool }

let analyze space =
  let connected = State_space.waitless_states space = [] in
  let acyclic = Dfr_graph.Traversal.is_acyclic (extended_dependency_graph space) in
  { certified = connected && acyclic; connected; acyclic }

let deadlock_free space = (analyze space).certified
