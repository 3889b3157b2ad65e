(* Order statistics for samples and for run-to-run spreads. *)

let sorted a =
  let s = Array.of_list a in
  Array.sort compare s;
  s

(* Linear interpolation between closest ranks; [nan] for no samples. *)
let percentile samples p =
  let s = sorted samples in
  let n = Array.length s in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((r -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median samples = percentile samples 0.5

(* Quartiles exactly as Python's statistics.quantiles(data, n=4) computes
   them (the default "exclusive" method), so spreads quoted by dfbench
   compare and by Python tooling agree.  One value is its own quartiles. *)
let quartiles samples =
  let s = sorted samples in
  let ld = Array.length s in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
