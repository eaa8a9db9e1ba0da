(* Tests for the probability substrate: Bigint, Rational, Dist, Rng,
   Stat.  Property tests check the bignum arithmetic against the native
   [int] oracle on small values and against algebraic laws on large
   values. *)

module B = Proba.Bigint
module Q = Proba.Rational
module D = Proba.Dist
module R = Proba.Rng
module S = Proba.Stat

let bigint_testable = Alcotest.testable B.pp B.equal
let rational_testable = Alcotest.testable Q.pp Q.equal

let check_b = Alcotest.check bigint_testable
let check_q = Alcotest.check rational_testable

(* ------------------------------------------------------------------ *)
(* Bigint unit tests *)

let test_bigint_of_to_int () =
  List.iter
    (fun n ->
       match B.to_int (B.of_int n) with
       | Some m -> Alcotest.(check int) (string_of_int n) n m
       | None -> Alcotest.failf "to_int failed for %d" n)
    [ 0; 1; -1; 42; -42; 1 lsl 29; 1 lsl 30; (1 lsl 30) - 1; 1 lsl 31;
      1 lsl 45; -(1 lsl 45); 1 lsl 60; max_int; -max_int ]

let test_bigint_to_int_boundaries () =
  (* max_int fits; one above does not. *)
  Alcotest.(check (option int)) "max_int" (Some max_int)
    (B.to_int (B.of_int max_int));
  Alcotest.(check (option int)) "max_int + 1" None
    (B.to_int (B.add (B.of_int max_int) B.one));
  Alcotest.(check (option int)) "2^100" None
    (B.to_int (B.pow B.two 100));
  Alcotest.(check (option int)) "-max_int" (Some (-max_int))
    (B.to_int (B.neg (B.of_int max_int)))

let test_bigint_min_int () =
  let v = B.of_int min_int in
  Alcotest.(check string) "min_int decimal" (string_of_int min_int)
    (B.to_string v);
  check_b "roundtrip via string" v (B.of_string (string_of_int min_int))

let test_bigint_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [ "0"; "1"; "-1"; "123456789123456789123456789";
      "-98765432109876543210987654321";
      "1000000000000000000000000000000000000000" ]

let test_bigint_add_sub_known () =
  let a = B.of_string "99999999999999999999999999" in
  let b = B.of_string "1" in
  check_b "carry chain" (B.of_string "100000000000000000000000000") (B.add a b);
  check_b "sub inverse" a (B.sub (B.add a b) b);
  check_b "a - a = 0" B.zero (B.sub a a)

let test_bigint_mul_known () =
  let a = B.of_string "123456789123456789" in
  let b = B.of_string "987654321987654321" in
  check_b "product"
    (B.of_string "121932631356500531347203169112635269")
    (B.mul a b);
  check_b "sign" (B.neg (B.mul a b)) (B.mul (B.neg a) b)

let test_bigint_divmod_known () =
  let a = B.of_string "1000000000000000000000000007" in
  let b = B.of_string "998244353" in
  let q, r = B.divmod a b in
  check_b "reconstruct" a (B.add (B.mul q b) r);
  Alcotest.(check bool) "0 <= r" true (B.sign r >= 0);
  Alcotest.(check bool) "r < b" true (B.compare r b < 0)

let test_bigint_divmod_negative () =
  (* Truncated division: remainder takes the dividend's sign. *)
  let q, r = B.divmod (B.of_int (-7)) (B.of_int 2) in
  check_b "q" (B.of_int (-3)) q;
  check_b "r" (B.of_int (-1)) r;
  let q, r = B.divmod (B.of_int 7) (B.of_int (-2)) in
  check_b "q neg divisor" (B.of_int (-3)) q;
  check_b "r neg divisor" (B.of_int 1) r

let test_bigint_div_by_zero () =
  Alcotest.check_raises "division by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_bigint_gcd () =
  check_b "gcd(12,18)" (B.of_int 6) (B.gcd (B.of_int 12) (B.of_int 18));
  check_b "gcd(0,0)" B.zero (B.gcd B.zero B.zero);
  check_b "gcd(0,5)" (B.of_int 5) (B.gcd B.zero (B.of_int 5));
  check_b "gcd negative" (B.of_int 6) (B.gcd (B.of_int (-12)) (B.of_int 18));
  let a = B.pow (B.of_int 2) 120 in
  let b = B.pow (B.of_int 2) 75 in
  check_b "gcd powers of two" b (B.gcd a b)

let test_bigint_pow () =
  check_b "2^100"
    (B.of_string "1267650600228229401496703205376")
    (B.pow B.two 100);
  check_b "x^0" B.one (B.pow (B.of_int 12345) 0);
  check_b "0^0" B.one (B.pow B.zero 0);
  check_b "0^5" B.zero (B.pow B.zero 5);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
        ignore (B.pow B.two (-1)))

let test_bigint_compare () =
  Alcotest.(check bool) "neg < pos" true (B.compare (B.of_int (-5)) B.one < 0);
  Alcotest.(check bool) "big > small" true
    (B.compare (B.of_string "10000000000000000000") (B.of_int max_int) > 0);
  Alcotest.(check bool) "equal" true (B.equal (B.of_int 7) (B.of_int 7))

let test_bigint_bit_length () =
  Alcotest.(check int) "0" 0 (B.bit_length B.zero);
  Alcotest.(check int) "1" 1 (B.bit_length B.one);
  Alcotest.(check int) "255" 8 (B.bit_length (B.of_int 255));
  Alcotest.(check int) "256" 9 (B.bit_length (B.of_int 256));
  Alcotest.(check int) "2^100" 101 (B.bit_length (B.pow B.two 100))

let test_bigint_to_float () =
  Alcotest.(check (float 0.0)) "42" 42.0 (B.to_float (B.of_int 42));
  Alcotest.(check (float 1e6)) "2^70" (Float.pow 2.0 70.0)
    (B.to_float (B.pow B.two 70));
  Alcotest.(check (float 0.0)) "-3" (-3.0) (B.to_float (B.of_int (-3)))

(* ------------------------------------------------------------------ *)
(* Bigint property tests *)

let small_int = QCheck.int_range (-1_000_000) 1_000_000

let big_pair =
  (* Random bigints with up to ~120 bits, built from four ints. *)
  let gen =
    QCheck.Gen.(
      map
        (fun (a, b, c, s) ->
           let v =
             B.add
               (B.mul (B.of_int (abs a)) (B.pow B.two 60))
               (B.add (B.mul (B.of_int (abs b)) (B.pow B.two 30))
                  (B.of_int (abs c)))
           in
           if s then B.neg v else v)
        (quad int int int bool))
  in
  QCheck.make ~print:B.to_string gen

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches int oracle" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
        B.equal (B.of_int (a + b)) (B.add (B.of_int a) (B.of_int b)))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches int oracle" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
        B.equal (B.of_int (a * b)) (B.mul (B.of_int a) (B.of_int b)))

let prop_divmod_reconstruct =
  QCheck.Test.make ~name:"bigint divmod reconstructs" ~count:500
    (QCheck.pair big_pair big_pair) (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r)
        && B.compare (B.abs r) (B.abs b) < 0
        && (B.is_zero r || B.sign r = B.sign a))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint decimal roundtrip" ~count:300 big_pair
    (fun a -> B.equal a (B.of_string (B.to_string a)))

let prop_mul_commutative =
  QCheck.Test.make ~name:"bigint mul commutative" ~count:300
    (QCheck.pair big_pair big_pair) (fun (a, b) ->
        B.equal (B.mul a b) (B.mul b a))

let prop_add_associative =
  QCheck.Test.make ~name:"bigint add associative" ~count:300
    (QCheck.triple big_pair big_pair big_pair) (fun (a, b, c) ->
        B.equal (B.add a (B.add b c)) (B.add (B.add a b) c))

let prop_distributive =
  QCheck.Test.make ~name:"bigint mul distributes over add" ~count:300
    (QCheck.triple big_pair big_pair big_pair) (fun (a, b, c) ->
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_gcd_divides =
  QCheck.Test.make ~name:"bigint gcd divides both" ~count:300
    (QCheck.pair big_pair big_pair) (fun (a, b) ->
        let g = B.gcd a b in
        if B.is_zero g then B.is_zero a && B.is_zero b
        else B.is_zero (B.rem a g) && B.is_zero (B.rem b g))

let test_bigint_shifts () =
  check_b "shift_left" (B.of_int 40) (B.shift_left (B.of_int 5) 3);
  check_b "shift across limbs" (B.pow B.two 100)
    (B.shift_left B.one 100);
  check_b "shift_right" (B.of_int 5) (B.shift_right (B.of_int 40) 3);
  check_b "shift_right truncates" (B.of_int 2)
    (B.shift_right (B.of_int 5) 1);
  check_b "shift_right to zero" B.zero (B.shift_right (B.of_int 5) 10);
  check_b "negative values" (B.of_int (-20))
    (B.shift_left (B.of_int (-5)) 2);
  Alcotest.check_raises "negative shift"
    (Invalid_argument "Bigint.shift_left: negative shift") (fun () ->
        ignore (B.shift_left B.one (-1)))

let test_bigint_parity () =
  Alcotest.(check bool) "zero even" true (B.is_even B.zero);
  Alcotest.(check bool) "one odd" false (B.is_even B.one);
  Alcotest.(check bool) "big even" true (B.is_even (B.pow B.two 90));
  Alcotest.(check int) "tz zero" 0 (B.trailing_zeros B.zero);
  Alcotest.(check int) "tz odd" 0 (B.trailing_zeros (B.of_int 7));
  Alcotest.(check int) "tz 40" 3 (B.trailing_zeros (B.of_int 40));
  Alcotest.(check int) "tz 2^100" 100 (B.trailing_zeros (B.pow B.two 100))

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"bigint shift left then right" ~count:300
    (QCheck.pair big_pair (QCheck.int_range 0 120)) (fun (a, k) ->
        B.equal a (B.shift_right (B.shift_left a k) k))

let prop_shift_left_is_mul =
  QCheck.Test.make ~name:"bigint shift_left = mul by 2^k" ~count:300
    (QCheck.pair big_pair (QCheck.int_range 0 120)) (fun (a, k) ->
        B.equal (B.shift_left a k) (B.mul a (B.pow B.two k)))

(* ------------------------------------------------------------------ *)
(* Rational unit tests *)

let test_rational_canonical () =
  check_q "2/4 = 1/2" Q.half (Q.of_ints 2 4);
  check_q "-1/-2 = 1/2" Q.half (Q.of_ints (-1) (-2));
  check_q "3/-6 = -1/2" (Q.neg Q.half) (Q.of_ints 3 (-6));
  Alcotest.(check string) "canonical print" "-1/2"
    (Q.to_string (Q.of_ints 3 (-6)));
  check_q "0/7 = 0" Q.zero (Q.of_ints 0 7)

let test_rational_arith () =
  check_q "1/2 + 1/3" (Q.of_ints 5 6) (Q.add Q.half (Q.of_ints 1 3));
  check_q "1/2 * 1/4" (Q.of_ints 1 8) (Q.mul Q.half (Q.of_ints 1 4));
  check_q "1/2 - 1/2" Q.zero (Q.sub Q.half Q.half);
  check_q "(1/2)/(1/4)" Q.two (Q.div Q.half (Q.of_ints 1 4));
  check_q "pow" (Q.of_ints 1 1024) (Q.pow Q.half 10);
  check_q "pow negative" (Q.of_int 1024) (Q.pow Q.half (-10))

let test_rational_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.lt (Q.of_ints 1 3) Q.half);
  Alcotest.(check bool) "leq refl" true (Q.leq Q.half Q.half);
  check_q "min" (Q.of_ints 1 3) (Q.min Q.half (Q.of_ints 1 3));
  check_q "max" Q.half (Q.max Q.half (Q.of_ints 1 3))

let test_rational_of_string () =
  check_q "3/4" (Q.of_ints 3 4) (Q.of_string "3/4");
  check_q "decimal" (Q.of_ints 1 4) (Q.of_string "0.25");
  check_q "negative decimal" (Q.of_ints (-5) 4) (Q.of_string "-1.25");
  check_q "integer" (Q.of_int 42) (Q.of_string "42");
  Alcotest.check_raises "den 0" Division_by_zero (fun () ->
      ignore (Q.of_string "1/0"))

let test_rational_is_probability () =
  Alcotest.(check bool) "1/2" true (Q.is_probability Q.half);
  Alcotest.(check bool) "0" true (Q.is_probability Q.zero);
  Alcotest.(check bool) "1" true (Q.is_probability Q.one);
  Alcotest.(check bool) "3/2" false (Q.is_probability (Q.of_ints 3 2));
  Alcotest.(check bool) "-1/2" false (Q.is_probability (Q.neg Q.half))

let test_rational_to_float () =
  Alcotest.(check (float 1e-12)) "1/8" 0.125 (Q.to_float (Q.of_ints 1 8))

let rational_arb =
  let gen =
    QCheck.Gen.(
      map
        (fun (a, b) -> Q.of_ints a (1 + abs b))
        (pair (int_range (-10000) 10000) (int_range 0 10000)))
  in
  QCheck.make ~print:Q.to_string gen

let prop_rational_field =
  QCheck.Test.make ~name:"rational add/mul distribute" ~count:500
    (QCheck.triple rational_arb rational_arb rational_arb)
    (fun (a, b, c) ->
       Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_rational_inverse =
  QCheck.Test.make ~name:"rational x * 1/x = 1" ~count:500 rational_arb
    (fun a ->
       QCheck.assume (not (Q.is_zero a));
       Q.equal Q.one (Q.mul a (Q.inv a)))

let prop_rational_compare_antisym =
  QCheck.Test.make ~name:"rational compare antisymmetric" ~count:500
    (QCheck.pair rational_arb rational_arb) (fun (a, b) ->
        Stdlib.compare (Q.compare a b) 0 = -Stdlib.compare (Q.compare b a) 0)

(* ------------------------------------------------------------------ *)
(* Differential tests for the small-word fast path: every operation is
   replayed against a pure-Bigint reference, with operands sampled
   around the native-int promotion boundary (the fast path's cutover
   points: the 2^31 multiplication guard and max_int itself). *)

(* Reference normal form computed entirely in Bigint arithmetic. *)
let ref_normalize n d =
  if B.is_zero d then raise Division_by_zero
  else
    let n, d =
      if B.compare d B.zero < 0 then (B.neg n, B.neg d) else (n, d)
    in
    let g = B.gcd n d in
    (B.div n g, B.div d g)

let repr q = (Q.num q, Q.den q)
let repr_equal (a, b) (c, d) = B.equal a c && B.equal b d

let boundary_int =
  QCheck.Gen.(
    oneof
      [ int_range (-6) 6;
        int_range (-1000) 1000;
        map (fun k -> (1 lsl 31) + k) (int_range (-3) 3);
        map (fun k -> max_int - k) (int_range 0 3);
        map (fun k -> k - max_int) (int_range 0 3);
        map (fun e -> 1 lsl e) (int_range 0 62) ])

(* Raw numerator/denominator pairs, kept unreduced so canonicalization
   itself is under test. *)
let boundary_pair_arb =
  let gen =
    QCheck.Gen.(
      map
        (fun (n, d) -> (n, if d = 0 then 1 else d))
        (pair boundary_int boundary_int))
  in
  QCheck.make ~print:(fun (n, d) -> Printf.sprintf "%d/%d" n d) gen

let prop_rational_canonical_matches_reference =
  QCheck.Test.make ~name:"rational canonical form matches bigint reference"
    ~count:1000 boundary_pair_arb (fun (n, d) ->
        repr_equal
          (repr (Q.of_ints n d))
          (ref_normalize (B.of_int n) (B.of_int d)))

let prop_rational_add_matches_reference =
  QCheck.Test.make ~name:"rational add/sub match bigint reference"
    ~count:1000
    (QCheck.pair boundary_pair_arb boundary_pair_arb)
    (fun ((an, ad), (bn, bd)) ->
       let a = Q.of_ints an ad and b = Q.of_ints bn bd in
       let cross op =
         ref_normalize
           (op (B.mul (Q.num a) (Q.den b)) (B.mul (Q.num b) (Q.den a)))
           (B.mul (Q.den a) (Q.den b))
       in
       repr_equal (repr (Q.add a b)) (cross B.add)
       && repr_equal (repr (Q.sub a b)) (cross B.sub))

let prop_rational_mul_matches_reference =
  QCheck.Test.make ~name:"rational mul/div match bigint reference"
    ~count:1000
    (QCheck.pair boundary_pair_arb boundary_pair_arb)
    (fun ((an, ad), (bn, bd)) ->
       let a = Q.of_ints an ad and b = Q.of_ints bn bd in
       repr_equal
         (repr (Q.mul a b))
         (ref_normalize (B.mul (Q.num a) (Q.num b))
            (B.mul (Q.den a) (Q.den b)))
       && (Q.is_zero b
           || repr_equal
                (repr (Q.div a b))
                (ref_normalize (B.mul (Q.num a) (Q.den b))
                   (B.mul (Q.den a) (Q.num b)))))

let prop_rational_compare_matches_reference =
  QCheck.Test.make ~name:"rational compare matches bigint cross product"
    ~count:1000
    (QCheck.pair boundary_pair_arb boundary_pair_arb)
    (fun ((an, ad), (bn, bd)) ->
       let a = Q.of_ints an ad and b = Q.of_ints bn bd in
       let cross =
         B.compare (B.mul (Q.num a) (Q.den b)) (B.mul (Q.num b) (Q.den a))
       in
       Stdlib.compare (Q.compare a b) 0 = Stdlib.compare cross 0)

let prop_rational_results_canonical =
  QCheck.Test.make ~name:"rational arithmetic preserves canonical form"
    ~count:1000
    (QCheck.pair boundary_pair_arb boundary_pair_arb)
    (fun ((an, ad), (bn, bd)) ->
       let a = Q.of_ints an ad and b = Q.of_ints bn bd in
       let canonical q =
         B.compare (Q.den q) B.zero > 0
         && B.equal (B.gcd (Q.num q) (Q.den q)) B.one
       in
       List.for_all canonical
         [ Q.add a b; Q.sub a b; Q.mul a b;
           (if Q.is_zero b then Q.zero else Q.div a b) ])

let prop_rational_representation_unique =
  (* The two-tier representation must never produce distinct encodings
     of the same value: equal values are structurally equal and hash
     alike no matter how they were constructed. *)
  QCheck.Test.make ~name:"rational representation is unique" ~count:500
    boundary_pair_arb (fun (n, d) ->
        let small = Q.of_ints n d in
        let big = Q.make (B.of_int n) (B.of_int d) in
        let scaled =
          Q.make
            (B.mul (B.of_int n) (B.of_int 7))
            (B.mul (B.of_int d) (B.of_int 7))
        in
        Q.equal small big && Q.equal small scaled && small = big
        && small = scaled
        && Q.hash small = Q.hash big
        && Q.hash small = Q.hash scaled)

let test_rational_compare_shortcuts () =
  (* Equal-denominator shortcut, small and big. *)
  Alcotest.(check int) "equal small den" (-1)
    (Q.compare (Q.of_ints 3 7) (Q.of_ints 5 7));
  let huge = B.pow B.two 80 in
  Alcotest.(check int) "equal big den" (-1)
    (Q.compare (Q.make B.one huge) (Q.make (B.of_int 3) huge));
  (* Sign shortcut across representations. *)
  Alcotest.(check int) "neg < pos" (-1)
    (Q.compare (Q.of_ints (-1) max_int) (Q.make B.one huge));
  (* Cross products overflow native ints here, forcing the bigint
     fallback: (M-1)(M-4) < (M-3)(M-2). *)
  Alcotest.(check int) "cross-mul overflow" (-1)
    (Q.compare
       (Q.of_ints (max_int - 1) (max_int - 2))
       (Q.of_ints (max_int - 3) (max_int - 4)))

let test_rational_promotion_boundary () =
  let m = Q.of_int max_int in
  check_q "(max_int + 1) - 1" m (Q.sub (Q.add m Q.one) Q.one);
  check_q "2 * (max_int/2)" m (Q.mul (Q.of_ints max_int 2) Q.two);
  check_q "(x + x) / 2" (Q.of_ints max_int 2)
    (Q.div (Q.add (Q.of_ints max_int 2) (Q.of_ints max_int 2)) Q.two);
  (* min_int never fits the small representation; arithmetic must
     round-trip through the big one. *)
  let mn = Q.of_int min_int in
  check_q "min_int negates" (Q.neg mn) (Q.sub Q.zero mn);
  check_q "min_int/min_int" Q.one (Q.div mn mn);
  check_q "of_ints min_int min_int" Q.one (Q.of_ints min_int min_int);
  Alcotest.(check string) "min_int prints" (string_of_int min_int)
    (Q.to_string mn)

(* ------------------------------------------------------------------ *)
(* Dist tests *)

let test_dist_point () =
  let d = D.point 7 in
  Alcotest.(check int) "size" 1 (D.size d);
  check_q "prob" Q.one (D.prob_of d 7);
  Alcotest.(check (option int)) "is_point" (Some 7) (D.is_point d)

let test_dist_make_validates () =
  Alcotest.(check bool) "bad total rejected" true
    (try
       ignore (D.make [ (1, Q.half); (2, Q.of_ints 1 3) ]);
       false
     with D.Not_a_distribution _ -> true);
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (D.make [ (1, Q.of_ints 3 2); (2, Q.neg Q.half) ]);
       false
     with D.Not_a_distribution _ -> true)

let test_dist_merge_duplicates () =
  let d = D.make [ (1, Q.half); (1, Q.of_ints 1 4); (2, Q.of_ints 1 4) ] in
  Alcotest.(check int) "merged size" 2 (D.size d);
  check_q "merged weight" (Q.of_ints 3 4) (D.prob_of d 1)

let test_dist_custom_equal_merge () =
  (* Outcomes that are structurally distinct but identified by a custom
     [~equal] must coalesce rather than stay as split masses (the shape
     fault injection produces when the base automaton's state equality
     is coarser than structural equality). *)
  let equal (a, _) (b, _) = a = b in
  let d =
    D.make ~equal
      [ ((1, "x"), Q.half); ((1, "y"), Q.of_ints 1 4);
        ((2, "z"), Q.of_ints 1 4) ]
  in
  Alcotest.(check int) "make coalesces" 2 (D.size d);
  check_q "mass merged" (Q.of_ints 3 4) (D.prob_of ~equal d (1, "w"));
  let mapped = D.map ~equal (fun ((i, _), tag) -> (i, tag)) (D.product d d) in
  Alcotest.(check int) "map coalesces" 2 (D.size mapped)

let test_dist_uniform () =
  let d = D.uniform [ 'a'; 'b'; 'c' ] in
  check_q "each 1/3" (Q.of_ints 1 3) (D.prob_of d 'b');
  Alcotest.(check bool) "empty uniform rejected" true
    (try ignore (D.uniform ([] : int list)); false
     with D.Not_a_distribution _ -> true)

let test_dist_coin () =
  let d = D.coin `H `T in
  check_q "heads 1/2" Q.half (D.prob d (fun x -> x = `H))

let test_dist_map_bind () =
  let d = D.uniform [ 1; 2; 3; 4 ] in
  let even = D.map (fun n -> n mod 2 = 0) d in
  check_q "map collapses" Q.half (D.prob_of even true);
  let two_flips = D.bind (D.coin 0 1) (fun a ->
      D.map (fun b -> a + b) (D.coin 0 1))
  in
  check_q "bind sum=1" Q.half (D.prob_of two_flips 1);
  check_q "bind sum=2" (Q.of_ints 1 4) (D.prob_of two_flips 2)

let test_dist_product () =
  let d = D.product (D.coin `H `T) (D.uniform [ 1; 2; 3 ]) in
  check_q "independent cell" (Q.of_ints 1 6) (D.prob_of d (`H, 2));
  Alcotest.(check int) "size" 6 (D.size d)

let test_dist_expect () =
  let d = D.uniform [ 1; 2; 3; 4; 5; 6 ] in
  check_q "mean die" (Q.of_ints 7 2) (D.expect d Q.of_int)

let test_dist_filter () =
  let d = D.uniform [ 1; 2; 3; 4 ] in
  (match D.filter_renormalize d (fun n -> n <= 2) with
   | None -> Alcotest.fail "conditioning failed"
   | Some d' -> check_q "conditioned" Q.half (D.prob_of d' 1));
  Alcotest.(check bool) "null event" true
    (D.filter_renormalize d (fun n -> n > 10) = None)

let test_dist_sample () =
  let d = D.bernoulli (Q.of_ints 3 4) `X `Y in
  Alcotest.(check bool) "low u" true (D.sample d 0.1 = `X);
  Alcotest.(check bool) "high u" true (D.sample d 0.9 = `Y)

let prop_dist_bind_assoc =
  (* Monad associativity on a small concrete family. *)
  QCheck.Test.make ~name:"dist bind associativity" ~count:200
    (QCheck.int_range 1 6) (fun n ->
        let d = D.uniform (List.init n (fun i -> i)) in
        let f x = D.coin x (x + 1) in
        let g x = D.uniform [ x; x * 2 ] in
        let lhs = D.bind (D.bind d f) g in
        let rhs = D.bind d (fun x -> D.bind (f x) g) in
        List.for_all
          (fun (x, _) -> Q.equal (D.prob_of lhs x) (D.prob_of rhs x))
          (D.support rhs))

let prop_dist_total_one =
  QCheck.Test.make ~name:"dist weights always sum to 1" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) QCheck.small_nat)
    (fun xs ->
       QCheck.assume (xs <> []);
       let d = D.uniform xs in
       Q.equal Q.one (Q.sum (List.map snd (D.support d))))

(* ------------------------------------------------------------------ *)
(* Pspace *)

let test_pspace_probability_and_conditional () =
  let d = D.uniform [ 1; 2; 3; 4; 5; 6 ] in
  let even n = n mod 2 = 0 in
  let low n = n <= 3 in
  check_q "P(even)" Q.half (Proba.Pspace.probability d even);
  (match Proba.Pspace.conditional d even ~given:low with
   | Some p -> check_q "P(even | <=3) = 1/3" (Q.of_ints 1 3) p
   | None -> Alcotest.fail "condition has positive probability");
  Alcotest.(check bool) "null condition" true
    (Proba.Pspace.conditional d even ~given:(fun n -> n > 6) = None)

let test_pspace_independence () =
  (* Two fair coins: the coordinates are independent; on a single coin,
     an event is not independent of itself (unless trivial). *)
  let two = D.product (D.coin true false) (D.coin true false) in
  Alcotest.(check bool) "coordinates independent" true
    (Proba.Pspace.independent two fst snd);
  Alcotest.(check bool) "event vs itself" false
    (Proba.Pspace.independent two fst fst);
  Alcotest.(check bool) "trivial event independent of anything" true
    (Proba.Pspace.independent two fst (fun _ -> true))

let test_pspace_algebra_and_moments () =
  let d = D.uniform [ 1; 2; 3; 4 ] in
  let e1 n = n <= 2 and e2 n = n mod 2 = 0 in
  check_q "inter" (Q.of_ints 1 4)
    (Proba.Pspace.probability d (Proba.Pspace.inter e1 e2));
  check_q "union" (Q.of_ints 3 4)
    (Proba.Pspace.probability d (Proba.Pspace.union e1 e2));
  check_q "complement" Q.half
    (Proba.Pspace.probability d (Proba.Pspace.complement e1));
  check_q "variance of uniform 1..4" (Q.of_ints 5 4)
    (Proba.Pspace.variance d Q.of_int)

(* ------------------------------------------------------------------ *)
(* Rng tests *)

let test_rng_deterministic () =
  let a = R.create ~seed:42 in
  let b = R.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (R.bits64 a) (R.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = R.create ~seed:1 in
  let b = R.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true
    (R.bits64 a <> R.bits64 b)

let test_rng_int_bounds () =
  let r = R.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = R.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
        ignore (R.int r 0))

let test_rng_float_range () =
  let r = R.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = R.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_int_coverage () =
  (* Each residue of a small bound should appear: smoke test against
     catastrophic bias. *)
  let r = R.create ~seed:11 in
  let seen = Array.make 5 0 in
  for _ = 1 to 1000 do
    let v = R.int r 5 in
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i c ->
       Alcotest.(check bool) (Printf.sprintf "residue %d present" i) true
         (c > 100))
    seen

let test_rng_split_independent () =
  let r = R.create ~seed:5 in
  let child = R.split r in
  Alcotest.(check bool) "parent and child diverge" true
    (R.bits64 r <> R.bits64 child)

let test_rng_copy () =
  let r = R.create ~seed:13 in
  ignore (R.bits64 r);
  let c = R.copy r in
  Alcotest.(check int64) "copy replays" (R.bits64 r) (R.bits64 c)

let test_rng_pick () =
  let r = R.create ~seed:17 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true
      (List.mem (R.pick r [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty pick"
    (Invalid_argument "Rng.pick: empty list") (fun () ->
        ignore (R.pick r ([] : int list)))

let test_rng_shuffle () =
  let r = R.create ~seed:3 in
  let xs = List.init 20 (fun i -> i) in
  let ys = R.shuffle r xs in
  Alcotest.(check (list int)) "permutation" xs (List.sort compare ys)

(* ------------------------------------------------------------------ *)
(* Stat tests *)

let test_summary_known () =
  let s = S.Summary.create () in
  List.iter (S.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (S.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0)
    (S.Summary.variance s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (S.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (S.Summary.max s);
  Alcotest.(check int) "count" 8 (S.Summary.count s)

let test_summary_ci_contains_mean () =
  let s = S.Summary.create () in
  List.iter (S.Summary.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let lo, hi = S.Summary.mean_ci s in
  Alcotest.(check bool) "ci brackets mean" true (lo < 3.0 && 3.0 < hi)

let test_proportion () =
  let p = S.Proportion.create () in
  for i = 1 to 100 do S.Proportion.add p (i mod 4 = 0) done;
  Alcotest.(check (float 1e-9)) "estimate" 0.25 (S.Proportion.estimate p);
  let lo, hi = S.Proportion.wilson_ci p in
  Alcotest.(check bool) "wilson brackets" true (lo < 0.25 && 0.25 < hi);
  Alcotest.(check bool) "wilson within [0,1]" true (lo >= 0.0 && hi <= 1.0)

let test_proportion_extremes () =
  let p = S.Proportion.create () in
  for _ = 1 to 50 do S.Proportion.add p true done;
  let lo, hi = S.Proportion.wilson_ci p in
  Alcotest.(check (float 1e-9)) "hi at 1" 1.0 hi;
  Alcotest.(check bool) "lo below 1 but high" true (lo > 0.9 && lo < 1.0)

let test_histogram () =
  let h = S.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (S.Histogram.add h) [ 0.5; 1.5; 2.5; 3.5; 4.5; -1.0; 11.0 ];
  Alcotest.(check int) "count" 7 (S.Histogram.count h);
  Alcotest.(check int) "underflow" 1 (S.Histogram.underflow h);
  Alcotest.(check int) "overflow" 1 (S.Histogram.overflow h);
  Alcotest.(check int) "bin 0" 1 (S.Histogram.bin_counts h).(0)

let test_histogram_quantile () =
  let h = S.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:100 in
  for i = 1 to 1000 do
    S.Histogram.add h (float_of_int (i mod 100))
  done;
  let med = S.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "median near 50" true (med > 45.0 && med < 55.0)

(* ------------------------------------------------------------------ *)
(* Canonical decimals and the rational wire form.  The in-place readers
   are checked against the spec-level readers they replace: an int is
   canonical when [string_of_int] gives its bytes back, and a wire
   rational when [of_string] parses it and [to_string] gives its bytes
   back. *)

module Dec = Proba.Decimal

let reference_parse s =
  match int_of_string_opt s with
  | Some i when string_of_int i = s -> Some i
  | Some _ | None -> None

let reference_of_wire s =
  let plausible =
    s <> ""
    && String.for_all
         (fun c -> (c >= '0' && c <= '9') || c = '/' || c = '-')
         s
  in
  if not plausible then Error (Printf.sprintf "malformed rational %S" s)
  else
    match Q.of_string s with
    | q when String.equal (Q.to_string q) s -> Ok q
    | _ -> Error (Printf.sprintf "non-canonical rational %S" s)
    | exception _ -> Error (Printf.sprintf "malformed rational %S" s)

let same_result a b =
  match a, b with
  | Ok x, Ok y -> Q.equal x y
  | Error x, Error y -> String.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

let show_result = function
  | Ok q -> "Ok " ^ Q.to_string q
  | Error e -> "Error " ^ e

let decimal_ints =
  [ 0; 1; -1; 9; 10; -10; 99; 100; 12345; -12345; 999_999; 1_000_000;
    (1 lsl 31) - 1; 1 lsl 31; 123_456_789_012_345_678; max_int; max_int - 1;
    min_int; min_int + 1 ]

let rendered i =
  let buf = Buffer.create 8 in
  Buffer.add_char buf '.';
  Dec.add buf i;
  Buffer.sub buf 1 (Buffer.length buf - 1)

let test_decimal_canonical () =
  List.iter
    (fun i ->
       let s = string_of_int i in
       Alcotest.(check string) ("renders " ^ s) s (rendered i);
       Alcotest.(check (option int)) ("parses " ^ s) (Some i)
         (Dec.parse s 0 (String.length s));
       (* in place: the range is read, not its surroundings *)
       let framed = "7," ^ s ^ ",7" in
       Alcotest.(check (option int)) ("parses framed " ^ s) (Some i)
         (Dec.parse framed 2 (String.length s)))
    decimal_ints

let test_decimal_refusals () =
  List.iter
    (fun s ->
       Alcotest.(check (option int)) (Printf.sprintf "refuses %S" s) None
         (Dec.parse s 0 (String.length s));
       Alcotest.(check (option int)) (Printf.sprintf "reference refuses %S" s)
         None (reference_parse s))
    [ ""; "-"; "+5"; "0x10"; "0b1"; "1_0"; "01"; "00"; "-0"; "-01"; " 1";
      "1 "; "1,"; "9223372036854775808"; "-9223372036854775809";
      "99999999999999999999"; "100000000000000000000" ];
  Alcotest.check_raises "range outside the string"
    (Invalid_argument "Decimal.parse") (fun () -> ignore (Dec.parse "12" 1 2))

let decimal_text =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      string_size ~gen:(oneofl [ '0'; '1'; '9'; '-'; '+'; '_'; 'x'; ' ' ])
        (int_range 0 6))

let full_int =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      oneof
        [ int; int_range (-1000) 1000;
          map (fun k -> max_int - k) (int_range 0 3);
          map (fun k -> min_int + k) (int_range 0 3) ])

let prop_decimal_roundtrip =
  QCheck.Test.make ~name:"decimal writes and reads string_of_int"
    ~count:1000 full_int (fun i ->
        let s = string_of_int i in
        rendered i = s && Dec.parse s 0 (String.length s) = Some i)

let prop_decimal_matches_reference =
  QCheck.Test.make ~name:"decimal parse matches the reference" ~count:2000
    decimal_text (fun s -> Dec.parse s 0 (String.length s) = reference_parse s)

(* Canonical and non-canonical spellings on both tiers and across the
   native-int boundary. *)
let wire_corpus =
  let big = "340282366920938463463374607431768211456" (* 2^128 *) in
  [ "0"; "1"; "-1"; "1/2"; "-1/2"; "7/4096"; "-3/8"; "+1"; "-0"; "01"; "00";
    "0/3"; "0/1"; "2/4"; "1/1"; "3/1"; "1/-2"; "-1/-2"; "1//2"; "1/0"; "";
    "-"; "/"; "1/"; "/2"; "1/02"; "-01/2"; "1.5"; "0.5"; " 1"; "1 "; "a";
    "1/2/3"; "123456789012345678"; "1234567890123456789";
    "12345678901234567890"; "-12345678901234567890";
    "9223372036854775807"; "-9223372036854775807";
    "9223372036854775808"; "-9223372036854775808";
    "-9223372036854775809"; "1/9223372036854775807";
    "1/9223372036854775808"; "-9223372036854775808/3";
    "-9223372036854775808/2"; "9223372036854775807/9223372036854775806";
    "5/12345678901234567890"; big; "-" ^ big; "1/" ^ big; "3/" ^ big;
    "2/" ^ big; big ^ "/3"; big ^ "/1"; "0/" ^ big ]

let test_wire_corpus () =
  List.iter
    (fun s ->
       let want = reference_of_wire s and got = Q.of_wire s in
       Alcotest.(check string) (Printf.sprintf "of_wire %S" s)
         (show_result want) (show_result got);
       Alcotest.(check bool) (Printf.sprintf "same value for %S" s) true
         (same_result want got);
       let framed = "9:" ^ s ^ "/7" in
       Alcotest.(check string) (Printf.sprintf "of_wire_sub %S" s)
         (show_result want)
         (show_result (Q.of_wire_sub framed 2 (String.length s))))
    wire_corpus;
  (* the corpus's canonical spellings all round-trip through the writer *)
  List.iter
    (fun s ->
       match Q.of_wire s with
       | Ok q ->
         let buf = Buffer.create 8 in
         Q.add_wire buf q;
         Alcotest.(check string) ("add_wire " ^ s) s (Buffer.contents buf)
       | Error _ -> ())
    wire_corpus

let wire_rational =
  QCheck.make ~print:Q.to_string
    QCheck.Gen.(
      oneof
        [ map2 (fun n d -> Q.of_ints n (if d = 0 then 1 else d)) boundary_int
            boundary_int;
          map2
            (fun n e -> Q.make (B.of_int n) (B.pow B.two e))
            boundary_int (int_range 0 130);
          map2
            (fun e n -> Q.make (B.pow (B.of_int 3) e) (B.of_int (1 + abs n)))
            (int_range 30 90) (int_range (-1000) 1000) ])

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"rational wire round-trips" ~count:1000
    wire_rational (fun q ->
        let buf = Buffer.create 8 in
        Q.add_wire buf q;
        let w = Buffer.contents buf in
        String.equal w (Q.to_wire q)
        && (match Q.of_wire w with Ok q' -> Q.equal q q' | Error _ -> false))

let wire_text =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      string_size ~gen:(oneofl [ '0'; '1'; '2'; '4'; '9'; '-'; '/'; '+' ])
        (int_range 0 8))

let prop_wire_matches_reference =
  QCheck.Test.make ~name:"of_wire matches the general reader" ~count:3000
    wire_text (fun s -> same_result (reference_of_wire s) (Q.of_wire s))

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "proba"
    [ ("bigint",
       [ Alcotest.test_case "of/to int" `Quick test_bigint_of_to_int;
         Alcotest.test_case "to_int boundaries" `Quick
           test_bigint_to_int_boundaries;
         Alcotest.test_case "min_int" `Quick test_bigint_min_int;
         Alcotest.test_case "string roundtrip" `Quick
           test_bigint_string_roundtrip;
         Alcotest.test_case "add/sub" `Quick test_bigint_add_sub_known;
         Alcotest.test_case "mul" `Quick test_bigint_mul_known;
         Alcotest.test_case "divmod" `Quick test_bigint_divmod_known;
         Alcotest.test_case "divmod negative" `Quick
           test_bigint_divmod_negative;
         Alcotest.test_case "div by zero" `Quick test_bigint_div_by_zero;
         Alcotest.test_case "gcd" `Quick test_bigint_gcd;
         Alcotest.test_case "pow" `Quick test_bigint_pow;
         Alcotest.test_case "compare" `Quick test_bigint_compare;
         Alcotest.test_case "shifts" `Quick test_bigint_shifts;
         Alcotest.test_case "parity" `Quick test_bigint_parity;
         Alcotest.test_case "bit_length" `Quick test_bigint_bit_length;
         Alcotest.test_case "to_float" `Quick test_bigint_to_float ]);
      qsuite "bigint-props"
        [ prop_add_matches_int; prop_mul_matches_int;
          prop_divmod_reconstruct; prop_string_roundtrip;
          prop_mul_commutative; prop_add_associative; prop_distributive;
          prop_gcd_divides; prop_shift_roundtrip; prop_shift_left_is_mul ];
      ("rational",
       [ Alcotest.test_case "canonical" `Quick test_rational_canonical;
         Alcotest.test_case "arith" `Quick test_rational_arith;
         Alcotest.test_case "compare" `Quick test_rational_compare;
         Alcotest.test_case "compare shortcuts" `Quick
           test_rational_compare_shortcuts;
         Alcotest.test_case "promotion boundary" `Quick
           test_rational_promotion_boundary;
         Alcotest.test_case "of_string" `Quick test_rational_of_string;
         Alcotest.test_case "is_probability" `Quick
           test_rational_is_probability;
         Alcotest.test_case "to_float" `Quick test_rational_to_float ]);
      qsuite "rational-props"
        [ prop_rational_field; prop_rational_inverse;
          prop_rational_compare_antisym ];
      qsuite "rational-differential"
        [ prop_rational_canonical_matches_reference;
          prop_rational_add_matches_reference;
          prop_rational_mul_matches_reference;
          prop_rational_compare_matches_reference;
          prop_rational_results_canonical;
          prop_rational_representation_unique ];
      ("wire",
       [ Alcotest.test_case "decimal canonical" `Quick test_decimal_canonical;
         Alcotest.test_case "decimal refusals" `Quick test_decimal_refusals;
         Alcotest.test_case "of_wire corpus" `Quick test_wire_corpus ]);
      qsuite "wire-props"
        [ prop_decimal_roundtrip; prop_decimal_matches_reference;
          prop_wire_roundtrip; prop_wire_matches_reference ];
      ("dist",
       [ Alcotest.test_case "point" `Quick test_dist_point;
         Alcotest.test_case "make validates" `Quick test_dist_make_validates;
         Alcotest.test_case "merge duplicates" `Quick
           test_dist_merge_duplicates;
         Alcotest.test_case "custom equal merge" `Quick
           test_dist_custom_equal_merge;
         Alcotest.test_case "uniform" `Quick test_dist_uniform;
         Alcotest.test_case "coin" `Quick test_dist_coin;
         Alcotest.test_case "map/bind" `Quick test_dist_map_bind;
         Alcotest.test_case "product" `Quick test_dist_product;
         Alcotest.test_case "expect" `Quick test_dist_expect;
         Alcotest.test_case "filter" `Quick test_dist_filter;
         Alcotest.test_case "sample" `Quick test_dist_sample ]);
      qsuite "dist-props" [ prop_dist_bind_assoc; prop_dist_total_one ];
      ("pspace",
       [ Alcotest.test_case "probability/conditional" `Quick
           test_pspace_probability_and_conditional;
         Alcotest.test_case "independence" `Quick test_pspace_independence;
         Alcotest.test_case "algebra/moments" `Quick
           test_pspace_algebra_and_moments ]);
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "seed sensitivity" `Quick
           test_rng_seed_sensitivity;
         Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
         Alcotest.test_case "float range" `Quick test_rng_float_range;
         Alcotest.test_case "int coverage" `Quick test_rng_int_coverage;
         Alcotest.test_case "split" `Quick test_rng_split_independent;
         Alcotest.test_case "copy" `Quick test_rng_copy;
         Alcotest.test_case "pick" `Quick test_rng_pick;
         Alcotest.test_case "shuffle" `Quick test_rng_shuffle ]);
      ("stat",
       [ Alcotest.test_case "summary" `Quick test_summary_known;
         Alcotest.test_case "summary ci" `Quick test_summary_ci_contains_mean;
         Alcotest.test_case "proportion" `Quick test_proportion;
         Alcotest.test_case "proportion extremes" `Quick
           test_proportion_extremes;
         Alcotest.test_case "histogram" `Quick test_histogram;
         Alcotest.test_case "histogram quantile" `Quick
           test_histogram_quantile ]) ]
