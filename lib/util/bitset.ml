type t = int

let check_elt i =
  if i < 0 || i > 61 then invalid_arg "Bitset: element out of [0, 61]"

let empty = 0
let is_empty s = s = 0

let singleton i =
  check_elt i;
  1 lsl i

let mem i s =
  check_elt i;
  s land (1 lsl i) <> 0

let add i s = s lor singleton i
let remove i s = s land lnot (singleton i)
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b

let cardinal s =
  let rec go acc s = if s = 0 then acc else go (acc + 1) (s land (s - 1)) in
  go 0 s

let min_elt s =
  if s = 0 then raise Not_found;
  (* index of lowest set bit *)
  let rec go i s = if s land 1 = 1 then i else go (i + 1) (s lsr 1) in
  go 0 s

let max_elt s =
  if s = 0 then raise Not_found;
  let rec go i s = if s = 1 then i else go (i + 1) (s lsr 1) in
  go 0 s

let fold f s init =
  let rec go acc s =
    if s = 0 then acc
    else
      let i = min_elt s in
      go (f i acc) (remove i s)
  in
  go init s

let iter f s = fold (fun i () -> f i) s ()
let elements s = List.rev (fold (fun i acc -> i :: acc) s [])
let of_list l = List.fold_left (fun s i -> add i s) empty l

let full n =
  if n < 0 || n > 61 then invalid_arg "Bitset.full";
  (1 lsl n) - 1

let subsets s =
  if cardinal s > 16 then invalid_arg "Bitset.subsets: too large";
  (* enumerate submasks of s in increasing order of the complemented walk *)
  let rec go acc sub =
    let acc = sub :: acc in
    if sub = s then List.rev acc else go acc ((sub - s) land s)
  in
  go [] 0

let pp fmt s =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       Format.pp_print_int)
    (elements s)

(* Append-only rows over [0, len), each stored by its density.  The BWG
   builder's per-destination closure pass is the client: on large sparse
   networks (full mesh, dragonfly) a closure row holds a handful of
   buffers out of the destination's k, so a k-bit row would waste most
   of its words; on small dense move graphs (the cube fixtures) the
   word-parallel union is what makes the pass fast.  A row is built in an
   open accumulator, from elements and earlier rows, and written once to
   the flat [data] array when finished: a sorted run of at most [nw]
   elements, or [nw] bitmap words past that.  Nothing is allocated per
   row, and [reset] lets one arena serve many destinations. *)
module Arena = struct
  (* 62 bits per word keeps every mask a non-boxed OCaml int. *)
  let bits = 62

  (* index of an isolated bit: binary search over the word, six branches
     instead of a shift-per-position loop *)
  let bit_index b =
    let i = ref 0 and b = ref b in
    if !b land 0xFFFFFFFF = 0 then begin i := 32; b := !b lsr 32 end;
    if !b land 0xFFFF = 0 then begin i := !i + 16; b := !b lsr 16 end;
    if !b land 0xFF = 0 then begin i := !i + 8; b := !b lsr 8 end;
    if !b land 0xF = 0 then begin i := !i + 4; b := !b lsr 4 end;
    if !b land 0x3 = 0 then begin i := !i + 2; b := !b lsr 2 end;
    if !b land 0x1 = 0 then i := !i + 1;
    !i

  let popcount x =
    let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
    go 0 x

  type t = {
    mutable len : int;
    mutable nw : int; (* words of a dense row; also the promotion threshold *)
    mutable force_dense : bool;
    mutable data : int array; (* the finished rows, back to back *)
    mutable fill : int; (* words of [data] in use *)
    mutable rows : int;
    mutable off : int array; (* row r is data.(off.(r) .. off.(r + 1) - 1) *)
    mutable card : int array; (* row r's cardinality *)
    mutable dense : int; (* finished rows stored as bitmaps *)
    (* The open row: while it may still be sparse, its elements sorted in
       cur.(0 .. ncur - 1) ([tmp] is the merge target); once it holds
       more than [nw], or takes a dense row, the bitmap [acc], which is
       all zero outside an open dense row. *)
    mutable cur : int array;
    mutable ncur : int;
    mutable tmp : int array;
    mutable acc : int array;
    mutable open_dense : bool;
  }

  let create () =
    {
      len = 0;
      nw = 0;
      force_dense = false;
      data = [||];
      fill = 0;
      rows = 0;
      off = [| 0 |];
      card = [||];
      dense = 0;
      cur = [||];
      ncur = 0;
      tmp = [||];
      acc = [||];
      open_dense = false;
    }

  let reset ?(force_dense = false) t ~len =
    if len < 0 then invalid_arg "Bitset.Arena.reset";
    let nw = (len + bits - 1) / bits in
    if Array.length t.cur < nw then begin
      t.cur <- Array.make nw 0;
      t.tmp <- Array.make nw 0;
      t.acc <- Array.make nw 0
    end
    else (* a pass that raised may have left an open row behind *)
      Array.fill t.acc 0 (Array.length t.acc) 0;
    t.len <- len;
    t.nw <- nw;
    t.force_dense <- force_dense;
    t.fill <- 0;
    t.rows <- 0;
    t.dense <- 0;
    t.ncur <- 0;
    t.open_dense <- force_dense

  let rows t = t.rows
  let is_forced_dense t = t.force_dense

  let set_bit words i = words.(i / bits) <- words.(i / bits) lor (1 lsl (i mod bits))

  (* the open row's sorted elements into [acc], which takes over *)
  let to_dense t =
    for j = 0 to t.ncur - 1 do
      set_bit t.acc t.cur.(j)
    done;
    t.ncur <- 0;
    t.open_dense <- true

  (* position of [i] in a[lo .. hi - 1] (sorted), or its insertion point *)
  let search a lo hi i =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < i then lo := mid + 1 else hi := mid
    done;
    !lo

  let add t i =
    if i < 0 || i >= t.len then invalid_arg "Bitset.Arena: out of range";
    if t.open_dense then set_bit t.acc i
    else begin
      let pos = search t.cur 0 t.ncur i in
      if not (pos < t.ncur && t.cur.(pos) = i) then
        if t.ncur = t.nw then begin
          to_dense t;
          set_bit t.acc i
        end
        else begin
          Array.blit t.cur pos t.cur (pos + 1) (t.ncur - pos);
          t.cur.(pos) <- i;
          t.ncur <- t.ncur + 1
        end
    end

  let is_dense t r = t.force_dense || t.card.(r) > t.nw

  (* the sorted open row and the run data.(o .. o + n - 1), merged into
     [tmp] while the union fits [nw] elements, else into [acc] *)
  let merge t o n =
    let a = t.cur and na = t.ncur and b = t.data and out = t.tmp in
    let i = ref 0 and j = ref o and k = ref 0 in
    let stop = o + n in
    let fits = ref true in
    while !fits && (!i < na || !j < stop) do
      let x =
        if !j >= stop || (!i < na && a.(!i) < b.(!j)) then begin
          let x = a.(!i) in
          incr i;
          x
        end
        else begin
          let y = b.(!j) in
          if !i < na && a.(!i) = y then incr i;
          incr j;
          y
        end
      in
      if !k = t.nw then fits := false
      else begin
        out.(!k) <- x;
        incr k
      end
    done;
    if !fits then begin
      t.tmp <- a;
      t.cur <- out;
      t.ncur <- !k
    end
    else begin
      to_dense t;
      for p = o to stop - 1 do
        set_bit t.acc b.(p)
      done
    end

  let union t r =
    if r < 0 || r >= t.rows then invalid_arg "Bitset.Arena.union";
    let o = t.off.(r) in
    if is_dense t r then begin
      if not t.open_dense then to_dense t;
      for w = 0 to t.nw - 1 do
        t.acc.(w) <- t.acc.(w) lor t.data.(o + w)
      done
    end
    else if t.open_dense then
      for p = o to o + t.card.(r) - 1 do
        set_bit t.acc t.data.(p)
      done
    else merge t o t.card.(r)

  (* [a], or a copy at least twice as long when it is shorter than [need] *)
  let grow a need =
    if Array.length a >= need then a
    else begin
      let b = Array.make (max need (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  let finish t =
    let r = t.rows in
    t.off <- grow t.off (r + 2);
    t.card <- grow t.card (r + 1);
    if t.open_dense then begin
      t.data <- grow t.data (t.fill + t.nw);
      let c = ref 0 in
      for w = 0 to t.nw - 1 do
        let x = t.acc.(w) in
        t.data.(t.fill + w) <- x;
        c := !c + popcount x;
        t.acc.(w) <- 0
      done;
      t.card.(r) <- !c;
      t.fill <- t.fill + t.nw;
      t.dense <- t.dense + 1
    end
    else begin
      t.data <- grow t.data (t.fill + t.ncur);
      Array.blit t.cur 0 t.data t.fill t.ncur;
      t.card.(r) <- t.ncur;
      t.fill <- t.fill + t.ncur
    end;
    t.off.(r + 1) <- t.fill;
    t.rows <- r + 1;
    t.ncur <- 0;
    t.open_dense <- t.force_dense;
    r

  let check_row t r what =
    if r < 0 || r >= t.rows then invalid_arg ("Bitset.Arena." ^ what)

  let mem t r i =
    if r < 0 || r >= t.rows || i < 0 || i >= t.len then
      invalid_arg "Bitset.Arena: out of range";
    let o = t.off.(r) in
    if is_dense t r then t.data.(o + (i / bits)) land (1 lsl (i mod bits)) <> 0
    else
      let stop = t.off.(r + 1) in
      let pos = search t.data o stop i in
      pos < stop && t.data.(pos) = i

  let iter_row f t r =
    check_row t r "iter_row";
    let o = t.off.(r) in
    if is_dense t r then
      for w = 0 to t.nw - 1 do
        let mask = ref t.data.(o + w) in
        let base = w * bits in
        while !mask <> 0 do
          f (base + bit_index (!mask land - !mask));
          mask := !mask land (!mask - 1)
        done
      done
    else
      for p = o to t.off.(r + 1) - 1 do
        f t.data.(p)
      done

  let cardinal_row t r =
    check_row t r "cardinal_row";
    t.card.(r)

  let is_dense_row t r =
    check_row t r "is_dense_row";
    is_dense t r

  let dense_rows t = t.dense
  let storage_words t = t.fill
end
