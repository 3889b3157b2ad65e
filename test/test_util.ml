(* Unit and property tests for dfr_util: combinatorics, bitsets, PRNG. *)

open Dfr_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- combinatorics ---------------- *)

let test_factorial_values () =
  check Alcotest.int "0!" 1 (Combinatorics.factorial 0);
  check Alcotest.int "1!" 1 (Combinatorics.factorial 1);
  check Alcotest.int "5!" 120 (Combinatorics.factorial 5);
  check Alcotest.int "12!" 479001600 (Combinatorics.factorial 12)

let test_factorial_errors () =
  Alcotest.check_raises "negative" (Invalid_argument "Combinatorics.factorial: negative")
    (fun () -> ignore (Combinatorics.factorial (-1)));
  Alcotest.check_raises "overflow" (Invalid_argument "Combinatorics.factorial: overflow")
    (fun () -> ignore (Combinatorics.factorial 21))

let test_binomial_values () =
  check Alcotest.int "C(4,2)" 6 (Combinatorics.binomial 4 2);
  check Alcotest.int "C(12,6)" 924 (Combinatorics.binomial 12 6);
  check Alcotest.int "C(5,0)" 1 (Combinatorics.binomial 5 0);
  check Alcotest.int "C(5,5)" 1 (Combinatorics.binomial 5 5);
  check Alcotest.int "C(5,6)" 0 (Combinatorics.binomial 5 6);
  check Alcotest.int "C(5,-1)" 0 (Combinatorics.binomial 5 (-1))

let prop_pascal =
  QCheck.Test.make ~name:"binomial satisfies Pascal's rule" ~count:200
    QCheck.(pair (int_range 1 20) (int_range 0 20))
    (fun (n, k) ->
      Combinatorics.binomial n k
      = Combinatorics.binomial (n - 1) k + Combinatorics.binomial (n - 1) (k - 1))

let prop_binomial_row_sum =
  QCheck.Test.make ~name:"binomial row sums to 2^n" ~count:50
    QCheck.(int_range 0 20)
    (fun n ->
      let sum = ref 0 in
      for k = 0 to n do
        sum := !sum + Combinatorics.binomial n k
      done;
      !sum = Combinatorics.pow2 n)

let test_pow2 () =
  check Alcotest.int "2^0" 1 (Combinatorics.pow2 0);
  check Alcotest.int "2^12" 4096 (Combinatorics.pow2 12)

let test_falling () =
  check Alcotest.int "falling 5 2" 20 (Combinatorics.falling 5 2);
  check Alcotest.int "falling 5 0" 1 (Combinatorics.falling 5 0);
  check Alcotest.int "falling 5 5 = 5!" 120 (Combinatorics.falling 5 5)

let test_permutations () =
  check Alcotest.int "3 elements" 6 (List.length (Combinatorics.permutations [ 1; 2; 3 ]));
  check Alcotest.int "empty" 1 (List.length (Combinatorics.permutations []));
  let perms = Combinatorics.permutations [ 1; 2; 3; 4 ] in
  check Alcotest.int "4 elements distinct" 24
    (List.length (List.sort_uniq compare perms))

let test_subsets () =
  check Alcotest.int "4 elements" 16 (List.length (Combinatorics.subsets [ 1; 2; 3; 4 ]))

(* ---------------- bitsets ---------------- *)

let test_bitset_basic () =
  let s = Bitset.of_list [ 3; 1; 7 ] in
  check Alcotest.bool "mem 3" true (Bitset.mem 3 s);
  check Alcotest.bool "mem 2" false (Bitset.mem 2 s);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal s);
  check Alcotest.int "min" 1 (Bitset.min_elt s);
  check Alcotest.int "max" 7 (Bitset.max_elt s);
  check (Alcotest.list Alcotest.int) "elements sorted" [ 1; 3; 7 ] (Bitset.elements s)

let test_bitset_empty () =
  check Alcotest.bool "is_empty" true (Bitset.is_empty Bitset.empty);
  Alcotest.check_raises "min of empty" Not_found (fun () ->
      ignore (Bitset.min_elt Bitset.empty))

let test_bitset_full () =
  check Alcotest.int "full 5 cardinal" 5 (Bitset.cardinal (Bitset.full 5));
  check (Alcotest.list Alcotest.int) "full 3" [ 0; 1; 2 ] (Bitset.elements (Bitset.full 3))

let test_bitset_subsets () =
  let subs = Bitset.subsets (Bitset.of_list [ 0; 2; 5 ]) in
  check Alcotest.int "count" 8 (List.length subs);
  check Alcotest.int "distinct" 8 (List.length (List.sort_uniq compare subs));
  List.iter
    (fun sub ->
      check Alcotest.int "is subset" sub (Bitset.inter sub (Bitset.of_list [ 0; 2; 5 ])))
    subs

let prop_bitset_add_remove =
  QCheck.Test.make ~name:"add then remove restores" ~count:200
    QCheck.(pair (int_range 0 61) (int_range 0 (1 lsl 20)))
    (fun (i, s) ->
      let s = Bitset.remove i s in
      Bitset.remove i (Bitset.add i s) = s)

let prop_bitset_union_cardinal =
  QCheck.Test.make ~name:"|a| + |b| = |a∪b| + |a∩b|" ~count:200
    QCheck.(pair (int_range 0 (1 lsl 16)) (int_range 0 (1 lsl 16)))
    (fun (a, b) ->
      Bitset.cardinal a + Bitset.cardinal b
      = Bitset.cardinal (Bitset.union a b) + Bitset.cardinal (Bitset.inter a b))

let prop_bitset_fold_ascending =
  QCheck.Test.make ~name:"fold visits ascending" ~count:200
    QCheck.(int_range 0 (1 lsl 18))
    (fun s ->
      let xs = List.rev (Bitset.fold (fun i acc -> i :: acc) s []) in
      xs = List.sort compare xs)

(* ---------------- hybrid sparse/dense rows ---------------- *)

let hybrid_row t r =
  List.rev (Bitset.Hybrid.Rows.fold_row (fun i acc -> i :: acc) t r [])

let test_hybrid_promotion () =
  let len = 620 (* 10 words *) in
  let s = Bitset.Hybrid.Rows.create ~rows:1 ~len () in
  (* stays sparse while card + 1 <= word count *)
  List.iter (Bitset.Hybrid.Rows.add s 0) [ 0; 62; 124; 186; 248; 310; 372; 434; 496 ];
  check Alcotest.bool "9 of 620 still sparse" false (Bitset.Hybrid.Rows.is_dense_row s 0);
  List.iter (Bitset.Hybrid.Rows.add s 0) [ 558; 610; 611 ];
  check Alcotest.bool "12 of 620 promoted" true (Bitset.Hybrid.Rows.is_dense_row s 0);
  check Alcotest.int "cardinal across promotion" 12 (Bitset.Hybrid.Rows.cardinal_row s 0);
  check (Alcotest.list Alcotest.int) "elements ascending"
    [ 0; 62; 124; 186; 248; 310; 372; 434; 496; 558; 610; 611 ]
    (hybrid_row s 0);
  (* a forced-dense container starts dense and reports more storage for
     sparse content *)
  let h = Bitset.Hybrid.Rows.create ~rows:4 ~len () in
  let d = Bitset.Hybrid.Rows.create ~force_dense:true ~rows:4 ~len () in
  check Alcotest.bool "forced flag" true (Bitset.Hybrid.Rows.is_forced_dense d);
  Bitset.Hybrid.Rows.add h 1 3;
  Bitset.Hybrid.Rows.add d 1 3;
  check Alcotest.int "no sparse row promoted" 0 (Bitset.Hybrid.Rows.dense_rows h);
  check Alcotest.int "all forced rows dense" 4 (Bitset.Hybrid.Rows.dense_rows d);
  check Alcotest.bool "sparse stores fewer words" true
    (Bitset.Hybrid.Rows.storage_words h < Bitset.Hybrid.Rows.storage_words d)

(* 61 and 62 sit on either side of the first 62-bit word boundary; a
   sparse row, a row promoted while they arrive and a forced-dense row must
   all hold them in the one row they were added to *)
let test_hybrid_word_boundary () =
  List.iter
    (fun (tag, force_dense, len, dense) ->
      let t = Bitset.Hybrid.Rows.create ~force_dense ~rows:2 ~len () in
      List.iter (Bitset.Hybrid.Rows.add t 0) [ 99; 62; 0; 61 ];
      check Alcotest.bool (tag ^ " representation") dense
        (Bitset.Hybrid.Rows.is_dense_row t 0);
      check Alcotest.bool (tag ^ " mem 61") true (Bitset.Hybrid.Rows.mem t 0 61);
      check Alcotest.bool (tag ^ " mem 62") true (Bitset.Hybrid.Rows.mem t 0 62);
      check Alcotest.bool (tag ^ " not mem 63") false (Bitset.Hybrid.Rows.mem t 0 63);
      check (Alcotest.list Alcotest.int) (tag ^ " elements ascending")
        [ 0; 61; 62; 99 ] (hybrid_row t 0);
      check Alcotest.int (tag ^ " cardinal") 4 (Bitset.Hybrid.Rows.cardinal_row t 0);
      check (Alcotest.list Alcotest.int) (tag ^ " other row untouched") []
        (hybrid_row t 1))
    [
      ("sparse", false, 620, false);
      ("promoted", false, 100, true);
      ("forced", true, 100, true);
    ]

(* every pairing of representations: [into] gains [src], [src] keeps what it
   had, and a row unioned into itself is unchanged *)
let test_hybrid_union_keeps_source () =
  let len = 200 (* 4 words: a fifth element promotes *) in
  let sparse_elts = [ 1; 65; 130 ] and dense_elts = [ 2; 65; 69; 124; 190; 198 ] in
  let fill t r = List.iter (Bitset.Hybrid.Rows.add t r) in
  List.iter
    (fun (into_dense, src_dense) ->
      let t = Bitset.Hybrid.Rows.create ~rows:2 ~len () in
      let into_elts = if into_dense then dense_elts else sparse_elts
      and src_elts = if src_dense then dense_elts else sparse_elts in
      fill t 0 into_elts;
      fill t 1 (List.map (fun i -> i + 1) src_elts);
      check Alcotest.bool "into representation" into_dense
        (Bitset.Hybrid.Rows.is_dense_row t 0);
      check Alcotest.bool "src representation" src_dense
        (Bitset.Hybrid.Rows.is_dense_row t 1);
      let src_before = hybrid_row t 1 in
      Bitset.Hybrid.Rows.union_rows t ~into:0 ~src:1;
      check (Alcotest.list Alcotest.int) "union"
        (List.sort_uniq compare (into_elts @ src_before))
        (hybrid_row t 0);
      check (Alcotest.list Alcotest.int) "src untouched" src_before (hybrid_row t 1);
      let into_after = hybrid_row t 0 in
      Bitset.Hybrid.Rows.union_rows t ~into:0 ~src:0;
      check (Alcotest.list Alcotest.int) "self-union is a no-op" into_after
        (hybrid_row t 0))
    [ (false, false); (true, false); (false, true); (true, true) ]

let test_hybrid_out_of_range () =
  let t = Bitset.Hybrid.Rows.create ~rows:2 ~len:70 () in
  let bad = Invalid_argument "Bitset.Hybrid.Rows: out of range" in
  Alcotest.check_raises "add past the length" bad (fun () ->
      Bitset.Hybrid.Rows.add t 0 70);
  Alcotest.check_raises "add a negative element" bad (fun () ->
      Bitset.Hybrid.Rows.add t 0 (-1));
  Alcotest.check_raises "mem in a missing row" bad (fun () ->
      ignore (Bitset.Hybrid.Rows.mem t 2 0));
  Alcotest.check_raises "union from a missing row"
    (Invalid_argument "Bitset.Hybrid.Rows.union_rows") (fun () ->
      Bitset.Hybrid.Rows.union_rows t ~into:0 ~src:2);
  Alcotest.check_raises "negative length"
    (Invalid_argument "Bitset.Hybrid.Rows.create") (fun () ->
      ignore (Bitset.Hybrid.Rows.create ~rows:1 ~len:(-1) ()));
  check (Alcotest.list Alcotest.int) "failed calls left the rows empty" []
    (hybrid_row t 0 @ hybrid_row t 1)

(* The differential pin for the closure container: an arbitrary add/union
   program gives identical sets under the hybrid representation, the
   forced-dense escape hatch and a sorted-list reference model — element
   order, cardinals and membership all agree, across promotions. *)
let prop_hybrid_rows_differential =
  let rows = 6 and len = 300 in
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun r i -> `Add (r, i)) (int_range 0 (rows - 1)) (int_range 0 (len - 1));
          map2 (fun a b -> `Union (a, b)) (int_range 0 (rows - 1)) (int_range 0 (rows - 1));
        ])
  in
  QCheck.Test.make ~name:"hybrid rows = forced-dense = reference" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 150) op_gen))
    (fun ops ->
      let h = Bitset.Hybrid.Rows.create ~rows ~len () in
      let d = Bitset.Hybrid.Rows.create ~force_dense:true ~rows ~len () in
      let reference = Array.make rows [] in
      List.iter
        (function
          | `Add (r, i) ->
            Bitset.Hybrid.Rows.add h r i;
            Bitset.Hybrid.Rows.add d r i;
            reference.(r) <- List.sort_uniq compare (i :: reference.(r))
          | `Union (a, b) ->
            Bitset.Hybrid.Rows.union_rows h ~into:a ~src:b;
            Bitset.Hybrid.Rows.union_rows d ~into:a ~src:b;
            if a <> b then
              reference.(a) <- List.sort_uniq compare (reference.(b) @ reference.(a)))
        ops;
      List.for_all
        (fun r ->
          hybrid_row h r = reference.(r)
          && hybrid_row d r = reference.(r)
          && Bitset.Hybrid.Rows.cardinal_row h r = List.length reference.(r)
          && List.for_all
               (fun i ->
                 Bitset.Hybrid.Rows.mem h r i = List.mem i reference.(r))
               [ 0; 1; len / 2; len - 1 ])
        (List.init rows Fun.id))

(* ---------------- prng ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs g = List.init 20 (fun _ -> Prng.int g 1000) in
  check (Alcotest.list Alcotest.int) "same seed same stream" (xs a) (xs b)

let test_prng_split_independent () =
  let g = Prng.create 7 in
  let child = Prng.split g in
  (* drawing from the child must not change the parent's future *)
  let g2 = Prng.create 7 in
  let _ = Prng.split g2 in
  let _ = List.init 100 (fun _ -> Prng.int child 10) in
  check Alcotest.int "parent unaffected by child draws" (Prng.int g2 1000000)
    (Prng.int g 1000000)

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"int g b in [0, b)" ~count:500
    QCheck.(pair (int_range 1 1000) int)
    (fun (bound, seed) ->
      let g = Prng.create seed in
      let x = Prng.int g bound in
      x >= 0 && x < bound)

let prop_prng_float_bounds =
  QCheck.Test.make ~name:"float g b in [0, b)" ~count:500 QCheck.int (fun seed ->
      let g = Prng.create seed in
      let x = Prng.float g 3.0 in
      x >= 0.0 && x < 3.0)

let test_prng_shuffle_permutes () =
  let g = Prng.create 11 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "multiset preserved" (Array.init 50 Fun.id) sorted

let test_prng_pick () =
  let g = Prng.create 3 in
  for _ = 1 to 50 do
    let x = Prng.pick g [ 1; 2; 3 ] in
    check Alcotest.bool "member" true (List.mem x [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty list") (fun () ->
      ignore (Prng.pick g []))

let test_prng_bernoulli_extremes () =
  let g = Prng.create 9 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=1" true (Prng.bernoulli g 1.0);
    check Alcotest.bool "p=0" false (Prng.bernoulli g 0.0)
  done

let suite =
  [
    Alcotest.test_case "factorial values" `Quick test_factorial_values;
    Alcotest.test_case "factorial errors" `Quick test_factorial_errors;
    Alcotest.test_case "binomial values" `Quick test_binomial_values;
    Alcotest.test_case "pow2" `Quick test_pow2;
    Alcotest.test_case "falling factorial" `Quick test_falling;
    Alcotest.test_case "permutations" `Quick test_permutations;
    Alcotest.test_case "subsets" `Quick test_subsets;
    Alcotest.test_case "bitset basics" `Quick test_bitset_basic;
    Alcotest.test_case "bitset empty" `Quick test_bitset_empty;
    Alcotest.test_case "bitset full" `Quick test_bitset_full;
    Alcotest.test_case "bitset subsets" `Quick test_bitset_subsets;
    Alcotest.test_case "hybrid promotion and storage" `Quick test_hybrid_promotion;
    Alcotest.test_case "hybrid rows straddle a word boundary" `Quick
      test_hybrid_word_boundary;
    Alcotest.test_case "hybrid union keeps the source row" `Quick
      test_hybrid_union_keeps_source;
    Alcotest.test_case "hybrid rows reject out-of-range indices" `Quick
      test_hybrid_out_of_range;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independent;
    Alcotest.test_case "prng shuffle permutes" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "prng pick" `Quick test_prng_pick;
    Alcotest.test_case "prng bernoulli extremes" `Quick test_prng_bernoulli_extremes;
    qtest prop_pascal;
    qtest prop_binomial_row_sum;
    qtest prop_bitset_add_remove;
    qtest prop_bitset_union_cardinal;
    qtest prop_bitset_fold_ascending;
    qtest prop_hybrid_rows_differential;
    qtest prop_prng_int_bounds;
    qtest prop_prng_float_bounds;
  ]

(* ---------------- json ---------------- *)

let test_json_scalars () =
  check Alcotest.string "null" "null" (Json.to_string Json.Null);
  check Alcotest.string "true" "true" (Json.to_string (Json.Bool true));
  check Alcotest.string "int" "42" (Json.to_string (Json.Int 42));
  check Alcotest.string "float" "2.5" (Json.to_string (Json.Float 2.5));
  check Alcotest.string "integral float" "3.0" (Json.to_string (Json.Float 3.0));
  check Alcotest.string "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_json_escaping () =
  check Alcotest.string "quotes" "\"a\\\"b\"" (Json.to_string (Json.String "a\"b"));
  check Alcotest.string "backslash" "\"a\\\\b\"" (Json.to_string (Json.String "a\\b"));
  check Alcotest.string "newline" "\"a\\nb\"" (Json.to_string (Json.String "a\nb"));
  check Alcotest.string "control" "\"\\u0001\"" (Json.to_string (Json.String "\001"))

let test_json_structures () =
  let t = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("e", Json.List []) ] in
  check Alcotest.string "compact" "{\"xs\":[1,2],\"e\":[]}" (Json.to_string t);
  let pretty = Json.to_string_pretty t in
  check Alcotest.bool "pretty is multiline" true (String.contains pretty '\n')

let suite =
  suite
  @ [
      Alcotest.test_case "json scalars" `Quick test_json_scalars;
      Alcotest.test_case "json escaping" `Quick test_json_escaping;
      Alcotest.test_case "json structures" `Quick test_json_structures;
    ]

(* ---------------- json parsing / round-trip ---------------- *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> x = y
  | Json.String x, Json.String y -> x = y
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
         xs ys
  | _ -> false

let test_json_parse_scalars () =
  let ok s = match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  check Alcotest.bool "null" true (json_equal Json.Null (ok "null"));
  check Alcotest.bool "true" true (json_equal (Json.Bool true) (ok " true "));
  check Alcotest.bool "int" true (json_equal (Json.Int (-42)) (ok "-42"));
  check Alcotest.bool "float" true (json_equal (Json.Float 2.5) (ok "2.5"));
  check Alcotest.bool "string" true (json_equal (Json.String "hi") (ok "\"hi\""))

let test_json_parse_escapes () =
  let ok s = match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  check Alcotest.bool "escapes" true
    (json_equal (Json.String "a\"b\\c\nd\te")
       (ok "\"a\\\"b\\\\c\\nd\\te\""));
  check Alcotest.bool "unicode control" true
    (json_equal (Json.String "\001") (ok "\"\\u0001\""))

let test_json_parse_errors () =
  let fails s = match Json.of_string s with Ok _ -> false | Error _ -> true in
  check Alcotest.bool "empty" true (fails "");
  check Alcotest.bool "trailing" true (fails "1 2");
  check Alcotest.bool "unterminated" true (fails "\"abc");
  check Alcotest.bool "bad literal" true (fails "nil");
  check Alcotest.bool "open list" true (fails "[1, 2");
  check Alcotest.bool "missing colon" true (fails "{\"a\" 1}")

(* everything the emitter can produce parses back to the same tree, in
   both compact and pretty form *)
let arbitrary_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) small_signed_int;
        (* quarters print exactly under both float formats, so equality
           round-trips *)
        map (fun i -> Json.Float (float_of_int i /. 4.0)) small_signed_int;
        map (fun s -> Json.String s) (string_size (int_bound 8) ~gen:printable);
      ]
  in
  let tree =
    fix
      (fun self depth ->
        if depth = 0 then scalar
        else
          frequency
            [
              (2, scalar);
              (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
              ( 1,
                map
                  (fun ps -> Json.Obj ps)
                  (list_size (int_bound 4)
                     (pair (string_size (int_bound 6) ~gen:printable) (self (depth - 1))))
              );
            ])
      2
  in
  QCheck.make tree

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json emit/parse round-trip" ~count:200 arbitrary_json
    (fun t ->
      match (Json.of_string (Json.to_string t), Json.of_string (Json.to_string_pretty t)) with
      | Ok a, Ok b -> json_equal t a && json_equal t b
      | _ -> false)

let test_json_nonfinite () =
  (* JSON has no nan/inf tokens; emitting them verbatim made whole reports
     unparseable.  They degrade to null (documented in json.mli). *)
  check Alcotest.string "nan" "null" (Json.to_string (Json.Float Float.nan));
  check Alcotest.string "inf" "null" (Json.to_string (Json.Float Float.infinity));
  check Alcotest.string "-inf" "null"
    (Json.to_string (Json.Float Float.neg_infinity));
  check Alcotest.bool "round-trips as Null" true
    (match Json.of_string (Json.to_string (Json.Obj [ ("x", Json.Float Float.nan) ])) with
    | Ok (Json.Obj [ ("x", Json.Null) ]) -> true
    | _ -> false)

let test_json_surrogate_pairs () =
  let ok s =
    match Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  (* U+1F600 and U+1D11E, i.e. code points above the BMP, arrive as UTF-16
     surrogate pairs and must come out as one 4-byte UTF-8 scalar *)
  check Alcotest.bool "emoji pair" true
    (json_equal (Json.String "\xf0\x9f\x98\x80") (ok "\"\\ud83d\\ude00\""));
  check Alcotest.bool "clef pair" true
    (json_equal (Json.String "\xf0\x9d\x84\x9e") (ok "\"\\ud834\\udd1e\""));
  let fails s = match Json.of_string s with Ok _ -> false | Error _ -> true in
  check Alcotest.bool "lone high surrogate" true (fails "\"\\ud83d\"");
  check Alcotest.bool "lone low surrogate" true (fails "\"\\ude00\"");
  check Alcotest.bool "high then non-surrogate escape" true
    (fails "\"\\ud83d\\u0041\"");
  check Alcotest.bool "high then plain char" true (fails "\"\\ud83dx\"");
  match Json.of_string "  \"\\ude00\"" with
  | Ok _ -> Alcotest.fail "lone low surrogate accepted"
  | Error e ->
    check Alcotest.bool "error names the surrogate" true
      (let sub = "surrogate" in
       let n = String.length e and m = String.length sub in
       let rec scan i = i + m <= n && (String.sub e i m = sub || scan (i + 1)) in
       scan 0)

(* hostile floats: whatever lands in a document, the serialized form must
   stay parseable (a literal nan/inf token would not) *)
let arbitrary_json_wild =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) small_signed_int;
        oneofl
          [
            Json.Float Float.nan;
            Json.Float Float.infinity;
            Json.Float Float.neg_infinity;
            Json.Float 1e308;
            Json.Float (-0.0);
          ];
        map (fun f -> Json.Float f) float;
        map (fun s -> Json.String s) (string_size (int_bound 8) ~gen:printable);
      ]
  in
  let tree =
    fix
      (fun self depth ->
        if depth = 0 then scalar
        else
          frequency
            [
              (2, scalar);
              (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
              ( 1,
                map
                  (fun ps -> Json.Obj ps)
                  (list_size (int_bound 4)
                     (pair (string_size (int_bound 6) ~gen:printable) (self (depth - 1))))
              );
            ])
      2
  in
  QCheck.make tree

let prop_json_never_emits_nonfinite =
  QCheck.Test.make ~name:"json with non-finite floats always parses" ~count:300
    arbitrary_json_wild (fun t ->
      let parses s = match Json.of_string s with Ok _ -> true | Error _ -> false in
      parses (Json.to_string t) && parses (Json.to_string_pretty t))

let test_json_accessors () =
  let doc = Json.Obj [ ("n", Json.Int 3); ("xs", Json.List [ Json.String "a" ]) ] in
  check Alcotest.(option int) "member int" (Some 3)
    (Option.bind (Json.member "n" doc) Json.to_int);
  check Alcotest.(option string) "nested" (Some "a")
    (match Option.bind (Json.member "xs" doc) Json.to_list with
    | Some [ x ] -> Json.to_str x
    | _ -> None);
  check Alcotest.bool "absent" true (Json.member "zzz" doc = None)

(* ---------------- monotonic clock ---------------- *)

let test_monotime_nondecreasing () =
  (* a sleep must register, and readings must never go backwards *)
  let t0 = Monotime.now_ns () in
  Unix.sleepf 0.002;
  let t1 = Monotime.now_ns () in
  check Alcotest.bool "sleep advances the clock" true
    (Int64.sub t1 t0 >= 1_000_000L);
  let prev = ref (Monotime.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Monotime.now_ns () in
    check Alcotest.bool "nondecreasing" true (Int64.compare t !prev >= 0);
    prev := t
  done;
  let s0 = Monotime.now () in
  let s1 = Monotime.now () in
  check Alcotest.bool "float view agrees" true (s1 >= s0);
  check Alcotest.bool "elapsed is nonnegative" true
    (Monotime.elapsed_ns ~since:t0 >= 0L)

(* ---------------- domain pool ---------------- *)

(* run with an explicit concurrency cap, restoring the hardware default
   whatever happens — the pool is process-global state *)
let with_cap n f =
  Domain_pool.set_cap (Some n);
  Fun.protect ~finally:(fun () -> Domain_pool.set_cap None) f

let test_pool_runs_every_index () =
  with_cap 4 @@ fun () ->
  let hits = Array.make 7 0 in
  Domain_pool.parallel ~domains:7 (fun k -> hits.(k) <- hits.(k) + 1);
  check (Alcotest.array Alcotest.int) "each index exactly once"
    (Array.make 7 1) hits;
  (* degenerate cases *)
  let solo = ref (-1) in
  Domain_pool.parallel ~domains:1 (fun k -> solo := k);
  check Alcotest.int "domains=1 runs index 0" 0 !solo

let test_pool_reuse () =
  with_cap 4 @@ fun () ->
  (* warm: force workers into existence *)
  Domain_pool.parallel ~domains:4 (fun _ -> ());
  let n0 = Domain_pool.spawned () in
  check Alcotest.bool "warm-up spawned workers" true (n0 >= 1);
  for _ = 1 to 5 do
    Domain_pool.parallel ~domains:4 (fun _ -> ())
  done;
  check Alcotest.int "later phases reuse, never respawn" n0
    (Domain_pool.spawned ())

exception Boom of int

let test_pool_exception () =
  with_cap 4 @@ fun () ->
  (* indices 1 and 3 raise; the smallest index's exception surfaces *)
  (match
     Domain_pool.parallel ~domains:4 (fun k ->
         if k = 1 || k = 3 then raise (Boom k))
   with
  | () -> Alcotest.fail "exception was swallowed"
  | exception Boom 1 -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  (* the pool survives: workers were reparked despite the failure *)
  let hits = Array.make 4 0 in
  Domain_pool.parallel ~domains:4 (fun k -> hits.(k) <- hits.(k) + 1);
  check (Alcotest.array Alcotest.int) "pool usable after exception"
    (Array.make 4 1) hits

let test_pool_capped_serial_order () =
  (* cap 1: no workers, every index runs on the caller in index order —
     the oversubscription fallback the 1-core CI machines exercise *)
  with_cap 1 @@ fun () ->
  let order = ref [] in
  Domain_pool.parallel ~domains:5 (fun k -> order := k :: !order);
  check (Alcotest.list Alcotest.int) "caller runs indices in order"
    [ 0; 1; 2; 3; 4 ] (List.rev !order)

let await_ok p =
  match Domain_pool.await p with
  | Ok v -> v
  | Error e -> Alcotest.failf "async job raised %s" (Printexc.to_string e)

let test_async_result_and_exception () =
  with_cap 2 @@ fun () ->
  check Alcotest.int "value reaches the promise" 42
    (await_ok (Domain_pool.async (fun () -> 42)));
  (match Domain_pool.await (Domain_pool.async (fun () -> raise (Boom 7))) with
  | Error (Boom 7) -> ()
  | Error e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | Ok () -> Alcotest.fail "exception was swallowed");
  (* the worker was reparked before the promise was fulfilled *)
  let n0 = Domain_pool.spawned () in
  check Alcotest.string "the worker keeps serving" "alive"
    (await_ok (Domain_pool.async (fun () -> "alive")));
  check Alcotest.int "and is reused" n0 (Domain_pool.spawned ())

let test_async_backlog_at_cap_1 () =
  (* cap 1 leaves [parallel] no worker, but an async job gets one; a
     second job waits in the backlog until the first is done *)
  with_cap 1 @@ fun () ->
  let gate = Mutex.create () in
  Mutex.lock gate;
  let first_done = Atomic.make false in
  let first =
    Domain_pool.async (fun () ->
        Mutex.lock gate;
        Mutex.unlock gate;
        Atomic.set first_done true)
  in
  let second = Domain_pool.async (fun () -> Atomic.get first_done) in
  check Alcotest.bool "second waits behind the running first" true
    (Option.is_none (Domain_pool.poll second));
  Mutex.unlock gate;
  await_ok first;
  check Alcotest.bool "second ran after first" true (await_ok second)

let test_async_shares_cap () =
  (* cap 3 allows two busy workers process-wide: the async jobs and the
     [parallel] calls inside them share them *)
  with_cap 3 @@ fun () ->
  let live = Atomic.make 0 and peak = Atomic.make 0 in
  let rec raise_peak n =
    let p = Atomic.get peak in
    if n > p && not (Atomic.compare_and_set peak p n) then raise_peak n
  in
  let index _ =
    raise_peak (Atomic.fetch_and_add live 1 + 1);
    Unix.sleepf 0.005;
    Atomic.decr live
  in
  let jobs =
    List.init 4 (fun _ ->
        Domain_pool.async (fun () -> Domain_pool.parallel ~domains:3 index))
  in
  List.iter await_ok jobs;
  check Alcotest.bool "at most two indices at once" true (Atomic.get peak <= 2)

let prop_chunk_partitions =
  QCheck.Test.make ~name:"chunk tiles [0,n) in order, balanced" ~count:300
    QCheck.(pair (int_range 0 500) (int_range 1 32))
    (fun (n, domains) ->
      let pieces =
        List.init domains (fun k -> Domain_pool.chunk ~n ~domains k)
      in
      let covered =
        List.concat_map
          (fun (lo, hi) -> List.init (hi - lo) (fun i -> lo + i))
          pieces
      in
      let sizes = List.map (fun (lo, hi) -> hi - lo) pieces in
      let min_sz = List.fold_left min max_int sizes
      and max_sz = List.fold_left max 0 sizes in
      covered = List.init n Fun.id
      && max_sz - min_sz <= 1
      && Domain_pool.chunk ~n ~domains (-1) = (0, 0)
      && Domain_pool.chunk ~n ~domains domains = (0, 0))

let suite =
  suite
  @ [
      Alcotest.test_case "pool runs every index" `Quick
        test_pool_runs_every_index;
      Alcotest.test_case "pool reuses workers across phases" `Quick
        test_pool_reuse;
      Alcotest.test_case "pool re-raises smallest index" `Quick
        test_pool_exception;
      Alcotest.test_case "pool async: value and exception reach the promise"
        `Quick test_async_result_and_exception;
      Alcotest.test_case "pool async: a queued job waits for a worker" `Quick
        test_async_backlog_at_cap_1;
      Alcotest.test_case "pool async: jobs and their parallel calls share the cap"
        `Quick test_async_shares_cap;
      Alcotest.test_case "pool cap 1 is ordered serial" `Quick
        test_pool_capped_serial_order;
      qtest prop_chunk_partitions;
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "monotime nondecreasing" `Quick
        test_monotime_nondecreasing;
      Alcotest.test_case "json parse scalars" `Quick test_json_parse_scalars;
      Alcotest.test_case "json parse escapes" `Quick test_json_parse_escapes;
      Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
      Alcotest.test_case "json non-finite floats" `Quick test_json_nonfinite;
      Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogate_pairs;
      Alcotest.test_case "json accessors" `Quick test_json_accessors;
      qtest prop_json_roundtrip;
      qtest prop_json_never_emits_nonfinite;
    ]

(* ---------------- count table ---------------- *)

(* Count_table against a Hashtbl model.  Random adds, subtractions and
   removals over 25 keys, from the minimum size, so probe runs wrap past
   the array's end, removals shift runs back across it, and inserts grow
   the table.  After every step: [add]'s answer, every key's count (or
   [absent]), and the size. *)
let prop_count_table =
  QCheck.Test.make ~name:"count table = Hashtbl model" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 300) (triple (int_bound 2) (int_bound 24) (int_range 1 4)))
    (fun ops ->
      let t = Count_table.create 0 and model = Hashtbl.create 16 in
      let count k = Option.value (Hashtbl.find_opt model k) ~default:Count_table.absent in
      List.for_all
        (fun (op, key, d) ->
          let answered =
            match op with
            | 2 ->
              Count_table.remove t key;
              Hashtbl.remove model key;
              true
            | _ ->
              let d = if op = 0 then d else -d in
              let before = count key in
              Hashtbl.replace model key (if before = Count_table.absent then d else before + d);
              Count_table.add t key d = before
          in
          answered
          && Count_table.length t = Hashtbl.length model
          && List.for_all
               (fun k -> Count_table.find t k = count k)
               (List.init 25 Fun.id))
        ops)

let test_count_table_negative_keys () =
  let t = Count_table.create 4 in
  ignore (Count_table.add t 3 1 : int);
  check Alcotest.bool "find" true (Count_table.find t (-1) = Count_table.absent);
  Count_table.remove t (-1);
  check Alcotest.int "remove leaves the table" 1 (Count_table.length t);
  Alcotest.check_raises "add" (Invalid_argument "Count_table.add: negative key") (fun () ->
      ignore (Count_table.add t (-1) 1 : int))

let suite =
  suite
  @ [
      qtest prop_count_table;
      Alcotest.test_case "count table holds no negative key" `Quick
        test_count_table_negative_keys;
    ]
