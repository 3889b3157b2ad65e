(* 2^bits slots: slot i is cells.(2i), its key or -1, and cells.(2i + 1),
   the key's count, so a probe reads one cache line.  A key's home slot is
   the top bits of its product with an odd constant (Fibonacci hashing). *)
type t = { mutable cells : int array; mutable bits : int; mutable size : int }

let absent = min_int

(* the fewest slots, at least 8, that hold [n] keys at load 3/4 *)
let create n =
  let rec bits b = if 3 lsl b >= 4 * n then b else bits (b + 1) in
  let bits = bits 3 in
  { cells = Array.make (2 lsl bits) (-1); bits; size = 0 }

let length t = t.size
let home t key = (key * 0x9E3779B97F4A7C1) lsr (63 - t.bits)

(* the slot holding [key], or the empty slot ending its probe run *)
let rec slot t key i =
  let k = t.cells.(2 * i) in
  if k = key || k < 0 then i else slot t key ((i + 1) land ((1 lsl t.bits) - 1))

let find t key =
  let i = slot t key (home t key) in
  if key >= 0 && t.cells.(2 * i) = key then t.cells.((2 * i) + 1) else absent

let rec add t key d =
  if key < 0 then invalid_arg "Count_table.add: negative key";
  let i = slot t key (home t key) and cells = t.cells in
  if cells.(2 * i) = key then begin
    cells.((2 * i) + 1) <- cells.((2 * i) + 1) + d;
    cells.((2 * i) + 1) - d
  end
  else if 4 * (t.size + 1) > 3 lsl t.bits then begin
    (* twice the slots, every key entered again *)
    t.cells <- Array.make (4 lsl t.bits) (-1);
    t.bits <- t.bits + 1;
    t.size <- 0;
    for j = 0 to (Array.length cells / 2) - 1 do
      if cells.(2 * j) >= 0 then ignore (add t cells.(2 * j) cells.((2 * j) + 1) : int)
    done;
    add t key d
  end
  else begin
    cells.(2 * i) <- key;
    cells.((2 * i) + 1) <- d;
    t.size <- t.size + 1;
    absent
  end

(* Backward shift: an entry later in the run whose home is not cyclically
   after the hole, up to its own slot, moves back into the hole, which
   moves to where it was; the run's end becomes the last hole. *)
let remove t key =
  let cells = t.cells and mask = (1 lsl t.bits) - 1 in
  let i = slot t key (home t key) in
  if key >= 0 && cells.(2 * i) = key then begin
    t.size <- t.size - 1;
    let hole = ref i and j = ref ((i + 1) land mask) in
    while cells.(2 * !j) >= 0 do
      let k = cells.(2 * !j) in
      if (!j - home t k) land mask >= (!j - !hole) land mask then begin
        cells.(2 * !hole) <- k;
        cells.((2 * !hole) + 1) <- cells.((2 * !j) + 1);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    cells.(2 * !hole) <- -1
  end
