(* All algorithms run on the frozen CSR form; the [Digraph.t] entry points
   freeze once and delegate, so callers holding a mutable graph pay one
   O(V + E) packing instead of per-vertex [List.rev] allocation on every
   step of the walk. *)

let reachable_csr g sources =
  let n = Csr.num_vertices g in
  let seen = Array.make n false in
  let rec visit stack =
    match stack with
    | [] -> ()
    | u :: rest ->
      let push acc v = if seen.(v) then acc else (seen.(v) <- true; v :: acc) in
      visit (Csr.fold_succ (fun v acc -> push acc v) g u rest)
  in
  let init = List.filter (fun s -> not seen.(s) && (seen.(s) <- true; true)) sources in
  visit init;
  seen

let topological_sort_csr g =
  let n = Csr.num_vertices g in
  let indeg = Array.make n 0 in
  Csr.iter_edges (fun _ v -> indeg.(v) <- indeg.(v) + 1) g;
  let q = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v q
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    incr count;
    order := u :: !order;
    Csr.iter_succ
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v q)
      g u
  done;
  if !count = n then Some (List.rev !order) else None

let is_acyclic_csr g = topological_sort_csr g <> None

let find_cycle_csr g =
  let n = Csr.num_vertices g in
  (* colors: 0 unvisited, 1 on current DFS path, 2 done *)
  let color = Array.make n 0 in
  let parent = Array.make n (-1) in
  let result = ref None in
  let rec dfs u =
    color.(u) <- 1;
    Csr.iter_succ
      (fun v ->
        if !result = None then
          match color.(v) with
          | 0 ->
            parent.(v) <- u;
            dfs v
          | 1 ->
            (* walk the parent chain from u back to v *)
            let rec collect acc w =
              if w = v then w :: acc else collect (w :: acc) parent.(w)
            in
            result := Some (collect [] u)
          | _ -> ())
      g u;
    if !result = None then color.(u) <- 2
  in
  let rec scan v =
    if v >= n || !result <> None then ()
    else begin
      if color.(v) = 0 then dfs v;
      scan (v + 1)
    end
  in
  scan 0;
  !result

let reachable g sources = reachable_csr (Digraph.freeze g) sources
let topological_sort g = topological_sort_csr (Digraph.freeze g)
let is_acyclic g = is_acyclic_csr (Digraph.freeze g)
let find_cycle g = find_cycle_csr (Digraph.freeze g)
