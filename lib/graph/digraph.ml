(* Invariants: no duplicate entries within adj.(u); adj lists hold the most
   recently inserted successor first.  Membership is an O(deg) list scan —
   the mutable form is for construction; anything query-heavy should
   [freeze] to CSR first. *)
type t = {
  n : int;
  adj : int list array;
  mutable m : int;
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; adj = Array.make n []; m = 0 }

let num_vertices g = g.n
let num_edges g = g.m

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Digraph: vertex out of range"

let mem_edge g u v =
  check g u;
  check g v;
  List.mem v g.adj.(u)

let unsafe_add_edge g u v =
  g.adj.(u) <- v :: g.adj.(u);
  g.m <- g.m + 1

let add_edge g u v =
  if not (mem_edge g u v) then unsafe_add_edge g u v

let remove_edge g u v =
  if mem_edge g u v then begin
    g.adj.(u) <- List.filter (fun w -> w <> v) g.adj.(u);
    g.m <- g.m - 1
  end

let succ g u =
  check g u;
  List.rev g.adj.(u)

(* adjacency is stored newest-first: recursing before the call restores
   insertion order without allocating a reversed copy *)
let iter_succ f g u =
  check g u;
  let rec go = function
    | [] -> ()
    | v :: tl ->
      go tl;
      f v
  in
  go g.adj.(u)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    List.iter (fun v -> f u v) (List.rev g.adj.(u))
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

let edges g = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) g [])

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let induced g ~keep =
  let h = create g.n in
  iter_edges (fun u v -> if keep u && keep v then add_edge h u v) g;
  h

let freeze g =
  let deg u = List.length g.adj.(u) in
  let offsets = Array.make (g.n + 1) 0 in
  for u = 0 to g.n - 1 do
    offsets.(u + 1) <- offsets.(u) + deg u
  done;
  let targets = Array.make g.m 0 in
  for u = 0 to g.n - 1 do
    let row = List.sort compare g.adj.(u) in
    List.iteri (fun i v -> targets.(offsets.(u) + i) <- v) row
  done;
  Csr.make ~n:g.n ~offsets ~targets

let equal a b =
  a.n = b.n && a.m = b.m
  && begin
    let ok = ref true in
    (* rows are duplicate-free, so sorted rows are canonical *)
    for u = 0 to a.n - 1 do
      if !ok && List.sort compare a.adj.(u) <> List.sort compare b.adj.(u) then
        ok := false
    done;
    !ok
  end
