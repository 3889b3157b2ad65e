(* Invariant: offsets.(0) = 0, offsets monotone, offsets.(n) = |targets|,
   and each row targets.(offsets.(u) .. offsets.(u+1)-1) is strictly
   ascending with every entry in [0, n). *)
type t = { n : int; offsets : int array; targets : int array }

let invalid msg = invalid_arg ("Csr.make: " ^ msg)

let make ~n ~offsets ~targets =
  if n < 0 then invalid "negative size";
  if Array.length offsets <> n + 1 then invalid "offsets length <> n + 1";
  if offsets.(0) <> 0 then invalid "offsets.(0) <> 0";
  if offsets.(n) <> Array.length targets then
    invalid "offsets.(n) <> length targets";
  for u = 0 to n - 1 do
    if offsets.(u) > offsets.(u + 1) then invalid "offsets not monotone";
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(i) in
      if v < 0 || v >= n then invalid "target out of range";
      if i > offsets.(u) && targets.(i - 1) >= v then
        invalid "row not strictly ascending"
    done
  done;
  { n; offsets; targets }

let num_vertices g = g.n
let num_edges g = g.offsets.(g.n)

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Csr: vertex out of range"

let mem_edge g u v =
  check g u;
  check g v;
  let lo = ref g.offsets.(u) and hi = ref g.offsets.(u + 1) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.targets.(mid) in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid
  done;
  !found

let row g u =
  check g u;
  (g.offsets.(u), g.offsets.(u + 1))

let target g i = g.targets.(i)

let iter_succ f g u =
  check g u;
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f g.targets.(i)
  done

let fold_succ f g u init =
  check g u;
  let acc = ref init in
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    acc := f g.targets.(i) !acc
  done;
  !acc

let succ g u = List.rev (fold_succ (fun v acc -> v :: acc) g u [])

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      f u g.targets.(i)
    done
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

let edges g = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) g [])

(* Shared tail of of_edges/transpose: pack a degree histogram into offsets
   and scatter (sorted) edges into targets. *)
let pack n degree fill =
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + degree u
  done;
  let targets = Array.make offsets.(n) 0 in
  let next = Array.sub offsets 0 n in
  fill (fun u v ->
      targets.(next.(u)) <- v;
      next.(u) <- next.(u) + 1);
  { n; offsets; targets }

let of_edges n es =
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Csr.of_edges: vertex out of range")
    es;
  let es = List.sort_uniq compare es in
  let deg = Array.make (max n 1) 0 in
  List.iter (fun (u, _) -> deg.(u) <- deg.(u) + 1) es;
  pack n
    (fun u -> deg.(u))
    (fun put -> List.iter (fun (u, v) -> put u v) es)

let transpose g =
  let deg = Array.make (max g.n 1) 0 in
  iter_edges (fun _ v -> deg.(v) <- deg.(v) + 1) g;
  (* scattering edges in (u ascending, row ascending) order lands each
     transposed row in ascending source order, preserving the invariant *)
  pack g.n
    (fun v -> deg.(v))
    (fun put -> iter_edges (fun u v -> put v u) g)

let equal a b =
  a.n = b.n && a.offsets = b.offsets && a.targets = b.targets
