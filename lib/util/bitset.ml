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

module Dense = struct
  (* 62 bits per word keeps every mask a non-boxed OCaml int. *)
  let bits = 62

  type t = { len : int; words : int array }

  let create len =
    if len < 0 then invalid_arg "Bitset.Dense.create: negative length";
    { len; words = Array.make ((len + bits - 1) / bits) 0 }

  let length s = s.len

  let check s i =
    if i < 0 || i >= s.len then invalid_arg "Bitset.Dense: element out of range"

  let mem s i =
    check s i;
    s.words.(i / bits) land (1 lsl (i mod bits)) <> 0

  let add s i =
    check s i;
    let w = i / bits in
    s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits))

  let union_into ~into src =
    if into.len <> src.len then invalid_arg "Bitset.Dense.union_into: lengths differ";
    for w = 0 to Array.length into.words - 1 do
      into.words.(w) <- into.words.(w) lor src.words.(w)
    done

  let cardinal s =
    let count x =
      let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
      go 0 x
    in
    Array.fold_left (fun acc w -> acc + count w) 0 s.words

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

  let iter f s =
    for w = 0 to Array.length s.words - 1 do
      let m = ref s.words.(w) in
      let base = w * bits in
      while !m <> 0 do
        (* isolate and clear the lowest set bit *)
        f (base + bit_index (!m land - !m));
        m := !m land (!m - 1)
      done
    done

  let fold f s init =
    let acc = ref init in
    iter (fun i -> acc := f i !acc) s;
    !acc

  let elements s = List.rev (fold (fun i acc -> i :: acc) s [])
end

(* Rows that pick their representation per row by density.  The BWG
   builder's per-destination closures are the motivating client: on large
   sparse networks (full mesh, dragonfly) a closure row holds a handful of
   buffers out of 10^4-10^5, so a dense V-bit row wastes three orders of
   magnitude of memory; on small dense move graphs (the cube fixtures) the
   word-parallel union is what makes the closure pass fast.  A row starts
   as a sorted int array and promotes itself to dense words once it would
   occupy as many words as the bitmap. *)
module Hybrid = struct
  let bits = Dense.bits

  type row =
    | Sparse of { mutable elts : int array; mutable card : int }
        (* elts.(0 .. card-1) sorted strictly ascending; the tail is scratch *)
    | Dense_row of int array

  module Rows = struct
    type t = {
      rows : int;
      len : int;
      nw : int; (* words of a dense row; also the promotion threshold *)
      force_dense : bool;
      data : row array;
    }

    let create ?(force_dense = false) ~rows ~len () =
      if rows < 0 || len < 0 then invalid_arg "Bitset.Hybrid.Rows.create";
      let nw = (len + bits - 1) / bits in
      let fresh _ =
        if force_dense then Dense_row (Array.make nw 0)
        else Sparse { elts = [||]; card = 0 }
      in
      { rows; len; nw; force_dense; data = Array.init rows fresh }

    let rows t = t.rows
    let length t = t.len
    let is_forced_dense t = t.force_dense

    let check t r i =
      if r < 0 || r >= t.rows || i < 0 || i >= t.len then
        invalid_arg "Bitset.Hybrid.Rows: out of range"

    (* position of [i] in the sorted prefix, or the insertion point *)
    let search elts card i =
      let lo = ref 0 and hi = ref card in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if elts.(mid) < i then lo := mid + 1 else hi := mid
      done;
      !lo

    let promoted t elts card =
      let words = Array.make t.nw 0 in
      for k = 0 to card - 1 do
        let i = elts.(k) in
        words.(i / bits) <- words.(i / bits) lor (1 lsl (i mod bits))
      done;
      words

    let add t r i =
      check t r i;
      match t.data.(r) with
      | Dense_row words -> words.(i / bits) <- words.(i / bits) lor (1 lsl (i mod bits))
      | Sparse s ->
        let pos = search s.elts s.card i in
        if not (pos < s.card && s.elts.(pos) = i) then
          if s.card + 1 > t.nw && t.len > 0 then begin
            let words = promoted t s.elts s.card in
            words.(i / bits) <- words.(i / bits) lor (1 lsl (i mod bits));
            t.data.(r) <- Dense_row words
          end
          else begin
            if s.card = Array.length s.elts then begin
              let grown = Array.make (max 4 (2 * s.card)) 0 in
              Array.blit s.elts 0 grown 0 s.card;
              s.elts <- grown
            end;
            Array.blit s.elts pos s.elts (pos + 1) (s.card - pos);
            s.elts.(pos) <- i;
            s.card <- s.card + 1
          end

    let mem t r i =
      check t r i;
      match t.data.(r) with
      | Dense_row words -> words.(i / bits) land (1 lsl (i mod bits)) <> 0
      | Sparse s ->
        let pos = search s.elts s.card i in
        pos < s.card && s.elts.(pos) = i

    (* merge two sorted prefixes into a fresh sorted array *)
    let merge_sorted a na b nb =
      let out = Array.make (na + nb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < na && !j < nb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then begin out.(!k) <- x; incr i end
        else if y < x then begin out.(!k) <- y; incr j end
        else begin out.(!k) <- x; incr i; incr j end;
        incr k
      done;
      while !i < na do out.(!k) <- a.(!i); incr i; incr k done;
      while !j < nb do out.(!k) <- b.(!j); incr j; incr k done;
      (out, !k)

    let union_rows t ~into ~src =
      if into < 0 || into >= t.rows || src < 0 || src >= t.rows then
        invalid_arg "Bitset.Hybrid.Rows.union_rows";
      if into <> src then
        match (t.data.(into), t.data.(src)) with
        | Dense_row a, Dense_row b ->
          for w = 0 to t.nw - 1 do
            a.(w) <- a.(w) lor b.(w)
          done
        | Dense_row a, Sparse s ->
          for k = 0 to s.card - 1 do
            let i = s.elts.(k) in
            a.(i / bits) <- a.(i / bits) lor (1 lsl (i mod bits))
          done
        | Sparse s, Dense_row b ->
          let a = promoted t s.elts s.card in
          for w = 0 to t.nw - 1 do
            a.(w) <- a.(w) lor b.(w)
          done;
          t.data.(into) <- Dense_row a
        | Sparse a, Sparse b ->
          let merged, card = merge_sorted a.elts a.card b.elts b.card in
          if card > t.nw && t.len > 0 then
            t.data.(into) <- Dense_row (promoted t merged card)
          else begin
            a.elts <- merged;
            a.card <- card
          end

    let iter_row f t r =
      if r < 0 || r >= t.rows then invalid_arg "Bitset.Hybrid.Rows.iter_row";
      match t.data.(r) with
      | Sparse s ->
        for k = 0 to s.card - 1 do
          f s.elts.(k)
        done
      | Dense_row words ->
        for w = 0 to t.nw - 1 do
          let mask = ref words.(w) in
          let base = w * bits in
          while !mask <> 0 do
            f (base + Dense.bit_index (!mask land - !mask));
            mask := !mask land (!mask - 1)
          done
        done

    let fold_row f t r init =
      let acc = ref init in
      iter_row (fun i -> acc := f i !acc) t r;
      !acc

    let cardinal_row t r =
      if r < 0 || r >= t.rows then invalid_arg "Bitset.Hybrid.Rows.cardinal_row";
      match t.data.(r) with
      | Sparse s -> s.card
      | Dense_row words ->
        let count x =
          let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
          go 0 x
        in
        Array.fold_left (fun acc w -> acc + count w) 0 words

    let is_dense_row t r =
      if r < 0 || r >= t.rows then invalid_arg "Bitset.Hybrid.Rows.is_dense_row";
      match t.data.(r) with Dense_row _ -> true | Sparse _ -> false

    let dense_rows t =
      let acc = ref 0 in
      for r = 0 to t.rows - 1 do
        if is_dense_row t r then incr acc
      done;
      !acc

    let storage_words t =
      let acc = ref 0 in
      for r = 0 to t.rows - 1 do
        acc :=
          !acc
          + (match t.data.(r) with
            | Sparse s -> Array.length s.elts
            | Dense_row words -> Array.length words)
      done;
      !acc
  end

  (* A standalone hybrid set is a one-row container; the differential
     test-suite drives this interface against {!Dense}. *)
  type t = Rows.t

  let create len = Rows.create ~rows:1 ~len ()
  let length t = Rows.length t
  let add t i = Rows.add t 0 i
  let mem t i = Rows.mem t 0 i

  let union_into ~into src =
    if Rows.length into <> Rows.length src then
      invalid_arg "Bitset.Hybrid.union_into: lengths differ";
    (* graft src's single row in as a second row of a scratch container
       sharing the payload, so the row-union logic is exercised as-is *)
    let pair =
      {
        Rows.rows = 2;
        len = into.Rows.len;
        nw = into.Rows.nw;
        force_dense = false;
        data = [| into.Rows.data.(0); src.Rows.data.(0) |];
      }
    in
    Rows.union_rows pair ~into:0 ~src:1;
    into.Rows.data.(0) <- pair.Rows.data.(0)

  let cardinal t = Rows.cardinal_row t 0
  let iter f t = Rows.iter_row f t 0
  let fold f t init = Rows.fold_row f t 0 init
  let elements t = List.rev (fold (fun i acc -> i :: acc) t [])
  let is_dense t = Rows.is_dense_row t 0

  let of_list len l =
    let t = create len in
    List.iter (add t) l;
    t
end
