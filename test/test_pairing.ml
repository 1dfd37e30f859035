(* Pairing-layer tests: parameter validity, G1 group laws, Fq2 field axioms,
   bilinearity and non-degeneracy of the modified Tate pairing. *)

open Peace_bigint
open Peace_pairing

let tiny = Lazy.force Params.tiny
let light = Lazy.force Params.light

let test_rng seed =
  let state = ref seed in
  fun n ->
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      state := (!state * 2685821657736338717) + 1442695040888963407;
      Bytes.set b i (Char.chr ((!state lsr 32) land 0xff))
    done;
    Bytes.unsafe_to_string b

let scalar params seed = Bigint.random_range (test_rng seed) Bigint.one params.Params.q

let test_params_valid () =
  List.iter
    (fun (name, params) ->
      match Params.validate params with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s params invalid: %s" name e)
    [
      ("tiny", tiny);
      ("light", light);
      ("paper-size", Lazy.force Params.paper_size);
    ]

let test_params_generate () =
  let params = Params.generate (test_rng 3) ~qbits:40 ~pbits:96 ~name:"generated" in
  (match Params.validate params with
  | Ok () -> ()
  | Error e -> Alcotest.failf "generated params invalid: %s" e);
  Alcotest.(check int) "q bits" 40 (Bigint.num_bits params.q);
  Alcotest.(check int) "p bits" 96 (Bigint.num_bits params.p)

(* Params.of_text builds the curve before validating, so a generator off
   the curve must come back as an Error, not an exception. *)
let test_params_of_text () =
  let text = Params.to_text tiny in
  (match Params.of_text text with
  | Ok params -> Alcotest.(check string) "round trip" text (Params.to_text params)
  | Error e -> Alcotest.failf "tiny text rejected: %s" e);
  let with_generator gx gy =
    match String.split_on_char '\n' text with
    | [ magic; name; p; q; h; _; _; "" ] ->
      String.concat "\n" [ magic; name; p; q; h; Bigint.to_hex gx; Bigint.to_hex gy ]
    | _ -> Alcotest.fail "unexpected parameter text layout"
  in
  let rejected name text =
    Alcotest.(check bool) name true
      (match Params.of_text text with Error _ -> true | Ok _ -> false)
  in
  rejected "off-curve generator" (with_generator tiny.gx (Bigint.succ tiny.gy));
  rejected "generator of order 2" (with_generator Bigint.zero Bigint.zero)

let test_g1_group_laws () =
  let params = tiny in
  let g = G1.generator params in
  Alcotest.(check bool) "generator on curve" true (G1.on_curve params g);
  Alcotest.(check bool) "generator in subgroup" true (G1.in_subgroup params g);
  Alcotest.(check bool) "qG = O" true
    (G1.is_infinity (G1.mul params params.q g));
  Alcotest.(check bool) "G + O = G" true
    (G1.equal params g (G1.add params g G1.infinity));
  Alcotest.(check bool) "G + (-G) = O" true
    (G1.is_infinity (G1.add params g (G1.neg params g)));
  Alcotest.(check bool) "2G = G+G" true
    (G1.equal params (G1.double params g) (G1.add params g g));
  let a = scalar params 1 and b = scalar params 2 in
  let lhs = G1.mul params (Modular.add a b params.q) g in
  let rhs = G1.add params (G1.mul params a g) (G1.mul params b g) in
  Alcotest.(check bool) "(a+b)G = aG + bG" true (G1.equal params lhs rhs);
  (* mul is a homomorphism through another point *)
  let p = G1.mul params a g in
  Alcotest.(check bool) "b(aG) = (ab)G" true
    (G1.equal params (G1.mul params b p)
       (G1.mul params (Modular.mul a b params.q) g))

let test_g1_encoding () =
  let params = tiny in
  let rng = test_rng 17 in
  for _ = 1 to 10 do
    let p = G1.random params rng in
    match G1.decode params (G1.encode params p) with
    | Some p' -> Alcotest.(check bool) "round trip" true (G1.equal params p p')
    | None -> Alcotest.fail "decode failed"
  done;
  (match G1.decode params (G1.encode params G1.infinity) with
  | Some p -> Alcotest.(check bool) "infinity round trip" true (G1.is_infinity p)
  | None -> Alcotest.fail "infinity decode failed");
  Alcotest.(check bool) "bad length rejected" true (G1.decode params "xx" = None);
  Alcotest.(check bool) "bad prefix rejected" true
    (G1.decode params ("\x07" ^ String.make (Params.group_element_bytes params - 1) 'a')
    = None)

let test_decode_rejects_nonsubgroup () =
  let params = tiny in
  (* find an on-curve point of full order (outside the q-subgroup) *)
  let rec find x =
    let xb = Bigint.of_int x in
    let p = params.Params.p in
    let rhs = Modular.add (Modular.powm xb (Bigint.of_int 3) p) xb p in
    match Modular.sqrt rhs p with
    | Some y when not (Bigint.is_zero y) ->
      let pt = G1.of_affine params ~x:xb ~y in
      if not (G1.in_subgroup params pt) then pt else find (x + 1)
    | _ -> find (x + 1)
  in
  let rogue = find 2 in
  Alcotest.(check bool) "constructed outside subgroup" false
    (G1.in_subgroup params rogue);
  (* its encoding is refused at the trust boundary *)
  Alcotest.(check bool) "decode rejects non-subgroup encoding" true
    (G1.decode params (G1.encode params rogue) = None);
  (* subgroup points still decode *)
  let ok_pt = G1.generator params in
  Alcotest.(check bool) "subgroup point decodes" true
    (G1.decode params (G1.encode params ok_pt) <> None)

let test_hash_to_point () =
  let params = tiny in
  let p1 = G1.hash_to_point params "message one" in
  let p2 = G1.hash_to_point params "message two" in
  let p1' = G1.hash_to_point params "message one" in
  Alcotest.(check bool) "deterministic" true (G1.equal params p1 p1');
  Alcotest.(check bool) "distinct messages differ" false (G1.equal params p1 p2);
  Alcotest.(check bool) "in subgroup" true (G1.in_subgroup params p1);
  Alcotest.(check bool) "not infinity" false (G1.is_infinity p1)

let test_fq2_field_axioms () =
  let fp = tiny.Params.fp in
  let rng = test_rng 23 in
  let random_elt () =
    Fq2.of_bigints fp
      (Bigint.random_below rng tiny.Params.p)
      (Bigint.random_below rng tiny.Params.p)
  in
  for _ = 1 to 20 do
    let a = random_elt () and b = random_elt () and c = random_elt () in
    Alcotest.(check bool) "mul commutes" true
      (Fq2.equal fp (Fq2.mul fp a b) (Fq2.mul fp b a));
    Alcotest.(check bool) "mul associates" true
      (Fq2.equal fp
         (Fq2.mul fp a (Fq2.mul fp b c))
         (Fq2.mul fp (Fq2.mul fp a b) c));
    Alcotest.(check bool) "distributes" true
      (Fq2.equal fp
         (Fq2.mul fp a (Fq2.add fp b c))
         (Fq2.add fp (Fq2.mul fp a b) (Fq2.mul fp a c)));
    Alcotest.(check bool) "sqr = mul self" true
      (Fq2.equal fp (Fq2.sqr fp a) (Fq2.mul fp a a));
    if not (Fq2.is_zero fp a) then begin
      Alcotest.(check bool) "inv inverts" true
        (Fq2.is_one fp (Fq2.mul fp a (Fq2.inv fp a)));
      (* conj is the Frobenius: a^p = conj a *)
      Alcotest.(check bool) "frobenius" true
        (Fq2.equal fp (Fq2.pow fp a tiny.Params.p) (Fq2.conj fp a))
    end
  done;
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Fq2.inv fp (Fq2.zero fp)))

let test_bilinearity params () =
  let g = G1.generator params in
  let e_gg = Pairing.tate params g g in
  Alcotest.(check bool) "non-degenerate" false (Pairing.Gt.is_one params e_gg);
  (* order q: e(G,G)^q = 1 *)
  Alcotest.(check bool) "target in order-q subgroup" true
    (Pairing.Gt.is_one params (Pairing.Gt.pow params e_gg params.Params.q));
  let a = scalar params 31 and b = scalar params 32 in
  let pa = G1.mul params a g and pb = G1.mul params b g in
  let lhs = Pairing.tate params pa pb in
  let rhs = Pairing.Gt.pow params e_gg (Modular.mul a b params.Params.q) in
  Alcotest.(check bool) "e(aG,bG) = e(G,G)^ab" true (Pairing.Gt.equal params lhs rhs);
  (* bilinearity in each slot *)
  Alcotest.(check bool) "e(aG,Q) = e(G,Q)^a" true
    (Pairing.Gt.equal params
       (Pairing.tate params pa pb)
       (Pairing.Gt.pow params (Pairing.tate params g pb) a));
  Alcotest.(check bool) "symmetric" true
    (Pairing.Gt.equal params (Pairing.tate params pa pb) (Pairing.tate params pb pa));
  (* additivity: e(P1 + P2, Q) = e(P1,Q)·e(P2,Q) *)
  let sum = G1.add params pa pb in
  Alcotest.(check bool) "additive in first slot" true
    (Pairing.Gt.equal params
       (Pairing.tate params sum pb)
       (Pairing.Gt.mul params (Pairing.tate params pa pb) (Pairing.tate params pb pb)));
  Alcotest.(check bool) "infinity pairs to one" true
    (Pairing.Gt.is_one params (Pairing.tate params G1.infinity g))

let test_projective_matches_affine () =
  (* the optimized Jacobian Miller loop must agree with the affine
     reference everywhere, including identity inputs *)
  List.iter
    (fun params ->
      let g = G1.generator params in
      let rng = test_rng 41 in
      for _ = 1 to 5 do
        let a = Bigint.random_range rng Bigint.one params.Params.q in
        let b = Bigint.random_range rng Bigint.one params.Params.q in
        let pa = G1.mul params a g and pb = G1.mul params b g in
        Alcotest.(check bool) "projective = affine" true
          (Pairing.Gt.equal params (Pairing.tate params pa pb)
             (Pairing.tate_affine params pa pb))
      done;
      Alcotest.(check bool) "identity left" true
        (Pairing.Gt.equal params
           (Pairing.tate params G1.infinity g)
           (Pairing.tate_affine params G1.infinity g));
      Alcotest.(check bool) "identity right" true
        (Pairing.Gt.equal params
           (Pairing.tate params g G1.infinity)
           (Pairing.tate_affine params g G1.infinity)))
    [ tiny; light ]

let test_product_pairing () =
  List.iter
    (fun params ->
      let g = G1.generator params in
      let rng = test_rng 43 in
      let pt () = G1.mul params (Bigint.random_range rng Bigint.one params.Params.q) g in
      let pairs = [ (pt (), pt ()); (pt (), pt ()); (pt (), pt ()) ] in
      let separate =
        List.fold_left
          (fun acc (p, q) -> Pairing.Gt.mul params acc (Pairing.tate params p q))
          (Pairing.Gt.one params) pairs
      in
      Alcotest.(check bool) "product = separate" true
        (Pairing.Gt.equal params (Pairing.tate_product params pairs) separate);
      (* identity pairs contribute nothing *)
      Alcotest.(check bool) "identity pair skipped" true
        (Pairing.Gt.equal params
           (Pairing.tate_product params ((G1.infinity, g) :: pairs))
           separate);
      Alcotest.(check bool) "empty product is one" true
        (Pairing.Gt.is_one params (Pairing.tate_product params [])))
    [ tiny; light ]

let test_pairing_counters () =
  Counters.reset ();
  let params = tiny in
  let g = G1.generator params in
  let before = Counters.snapshot () in
  ignore (Pairing.tate params g g);
  ignore (G1.mul params Bigint.two g);
  ignore (Pairing.Gt.pow params (Pairing.Gt.one params) Bigint.two);
  ignore (G1.hash_to_point params "x");
  let d = Counters.diff (Counters.snapshot ()) before in
  Alcotest.(check int) "pairings" 1 d.Counters.pairings;
  (* hash_to_point's internal cofactor clearing is deliberately NOT
     counted: it is part of the paper's H0 hash, not an exponentiation *)
  Alcotest.(check int) "g1 muls" 1 d.Counters.g1_mul;
  Alcotest.(check int) "gt exps" 1 d.Counters.gt_exp;
  Alcotest.(check int) "hashes" 1 d.Counters.hash_to_g1

(* --- differential tests of scalar multiplication against the fixed-window
   oracle --- *)

(* the first on-curve point with x >= x0 and y <> 0 *)
let rec curve_point params x0 =
  let p = params.Params.p in
  let x = Bigint.of_int x0 in
  let rhs = Modular.add (Modular.powm x (Bigint.of_int 3) p) x p in
  match Modular.sqrt rhs p with
  | Some y when not (Bigint.is_zero y) -> G1.of_affine params ~x ~y
  | _ -> curve_point params (x0 + 1)

(* Inputs: a subgroup point and its negation, infinity, the 2-torsion point
   (0, 0), a point outside the q-subgroup, and points of small order, whose
   odd multiples reach infinity inside the precomputed table. *)
let mul_points params =
  let q = params.Params.q and h = params.Params.h in
  let g = G1.mul params (scalar params 71) (G1.generator params) in
  let rogue = curve_point params 2 in
  let cleared d =
    if Bigint.is_zero (Bigint.erem h (Bigint.of_int d)) then
      [ G1.mul params (Bigint.mul q (Bigint.div h (Bigint.of_int d))) rogue ]
    else []
  in
  [ g; G1.neg params g; G1.infinity; G1.of_affine params ~x:Bigint.zero ~y:Bigint.zero;
    rogue ]
  @ cleared 3 @ cleared 9 @ cleared 4

let mul_scalar_gen params =
  let q = params.Params.q in
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ Bigint.zero; Bigint.one; Bigint.pred q; q; Bigint.succ q ]);
        (1, map (fun n -> Bigint.of_int n) (int_bound 300));
        (4, map (fun seed -> Bigint.random_below (test_rng seed) (Bigint.shift_left q 1)) int);
        (1, map (fun seed -> Bigint.random_below (test_rng seed) params.Params.h) int);
      ])

let g1_mul_differential params count =
  let points = Array.of_list (mul_points params) in
  let arb =
    QCheck.make
      ~print:(fun (k, i) -> Printf.sprintf "k=%s point=%d" (Bigint.to_string k) i)
      QCheck.Gen.(pair (mul_scalar_gen params) (int_bound (Array.length points - 1)))
  in
  QCheck.Test.make
    ~name:("g1 mul matches fixed-window oracle at " ^ params.Params.name)
    ~count arb
    (fun (k, i) ->
      G1.equal params (G1.mul params k points.(i))
        (Oracles.g1_mul_fixed_window params k points.(i)))

(* p2 is p1, -p1, infinity or another point *)
let g1_mul2_differential params count =
  let points = Array.of_list (mul_points params) in
  let n = Array.length points in
  let arb =
    QCheck.make
      ~print:(fun ((k1, k2), (i, rel)) ->
        Printf.sprintf "k1=%s k2=%s point=%d relation=%d" (Bigint.to_string k1)
          (Bigint.to_string k2) i rel)
      QCheck.Gen.(
        pair
          (pair (mul_scalar_gen params) (mul_scalar_gen params))
          (pair (int_bound (n - 1)) (int_bound 3)))
  in
  QCheck.Test.make
    ~name:("g1 mul2 matches mul + add at " ^ params.Params.name)
    ~count arb
    (fun ((k1, k2), (i, rel)) ->
      let p1 = points.(i) in
      let p2 =
        match rel with
        | 0 -> p1
        | 1 -> G1.neg params p1
        | 2 -> G1.infinity
        | _ -> points.((i + 1) mod n)
      in
      G1.equal params
        (G1.mul2 params k1 p1 k2 p2)
        (G1.add params (G1.mul params k1 p1) (G1.mul params k2 p2)))

let test_mul2_counts_and_edges () =
  let params = tiny in
  let g = G1.generator params in
  let q = params.Params.q in
  let before = Counters.snapshot () in
  let r = G1.mul2 params (Bigint.pred q) g Bigint.one g in
  let d = Counters.diff (Counters.snapshot ()) before in
  Alcotest.(check int) "one mul2 counts two g1 exponentiations" 2 d.Counters.g1_mul;
  Alcotest.(check bool) "(q-1)g + g = O" true (G1.is_infinity r);
  Alcotest.(check bool) "0·g + 0·O = O" true
    (G1.is_infinity (G1.mul2 params Bigint.zero g Bigint.zero G1.infinity));
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "mul2 negative first scalar" (fun () ->
      G1.mul2 params Bigint.minus_one g Bigint.one g);
  rejects "mul2 negative second scalar" (fun () ->
      G1.mul2 params Bigint.one g Bigint.minus_one g);
  rejects "mul negative scalar" (fun () -> G1.mul params Bigint.minus_one g)

(* decode is the trust boundary: total on every input of the right length *)
let g1_decode_total params count =
  let width = Params.group_element_bytes params in
  let arb =
    QCheck.make ~print:(fun s -> Printf.sprintf "%S" s)
      QCheck.Gen.(
        frequency
          [
            ( 3,
              map2
                (fun tag seed -> String.make 1 tag ^ test_rng seed (width - 1))
                (oneofl [ '\x00'; '\x02'; '\x03'; '\x04'; '\xff' ])
                int );
            ( 1,
              map
                (fun seed ->
                  G1.encode params (G1.mul params (scalar params seed) (G1.generator params)))
                int );
          ])
  in
  QCheck.Test.make ~name:("g1 decode total at " ^ params.Params.name) ~count arb
    (fun s ->
      match G1.decode params s with
      | None -> true
      | Some pt -> G1.in_subgroup params pt && G1.encode params pt = s
      | exception e ->
        QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e))

let qcheck_tests =
  let params = tiny in
  let scalar_arb =
    QCheck.make ~print:Bigint.to_string
      (QCheck.Gen.map
         (fun seed -> Bigint.random_range (test_rng seed) Bigint.one params.Params.q)
         QCheck.Gen.int)
  in
  [
    QCheck.Test.make ~name:"bilinearity e(aG,bG)=e(G,G)^ab" ~count:10
      (QCheck.pair scalar_arb scalar_arb)
      (fun (a, b) ->
        let g = G1.generator params in
        let lhs =
          Pairing.tate params (G1.mul params a g) (G1.mul params b g)
        in
        let rhs =
          Pairing.Gt.pow params (Pairing.tate params g g)
            (Modular.mul a b params.Params.q)
        in
        Pairing.Gt.equal params lhs rhs);
    QCheck.Test.make ~name:"gt encode round trip" ~count:10 scalar_arb
      (fun a ->
        let g = G1.generator params in
        let e = Pairing.Gt.pow params (Pairing.tate params g g) a in
        match Pairing.Gt.decode params (Pairing.Gt.encode params e) with
        | Some e' -> Pairing.Gt.equal params e e'
        | None -> false);
    QCheck.Test.make ~name:"g1 scalars compose" ~count:10
      (QCheck.pair scalar_arb scalar_arb)
      (fun (a, b) ->
        let g = G1.generator params in
        G1.equal params
          (G1.mul params a (G1.mul params b g))
          (G1.mul params (Modular.mul a b params.Params.q) g));
    g1_mul_differential tiny 300;
    g1_mul_differential light 25;
    g1_mul2_differential tiny 300;
    g1_mul2_differential light 25;
    g1_decode_total tiny 300;
    g1_decode_total light 30;
  ]

let suite =
  [
    ( "params",
      [
        Alcotest.test_case "presets valid" `Quick test_params_valid;
        Alcotest.test_case "generation" `Quick test_params_generate;
        Alcotest.test_case "of_text rejects bad generators" `Quick test_params_of_text;
      ] );
    ( "g1",
      [
        Alcotest.test_case "group laws" `Quick test_g1_group_laws;
        Alcotest.test_case "encoding" `Quick test_g1_encoding;
        Alcotest.test_case "hash to point" `Quick test_hash_to_point;
        Alcotest.test_case "decode rejects non-subgroup" `Quick
          test_decode_rejects_nonsubgroup;
        Alcotest.test_case "mul2 counts and edges" `Quick test_mul2_counts_and_edges;
      ] );
    ("fq2", [ Alcotest.test_case "field axioms" `Quick test_fq2_field_axioms ]);
    ( "pairing",
      [
        Alcotest.test_case "bilinearity (tiny)" `Quick (test_bilinearity tiny);
        Alcotest.test_case "bilinearity (light)" `Slow (test_bilinearity light);
        Alcotest.test_case "projective = affine" `Quick test_projective_matches_affine;
        Alcotest.test_case "product pairing" `Quick test_product_pairing;
        Alcotest.test_case "gt membership" `Quick (fun () ->
            let params = tiny in
            let g = G1.generator params in
            let e = Pairing.tate params g g in
            Alcotest.(check bool) "pairing output in subgroup" true
              (Pairing.Gt.in_subgroup params e);
            Alcotest.(check bool) "one in subgroup" true
              (Pairing.Gt.in_subgroup params (Pairing.Gt.one params));
            (* a random Fq2 element is (overwhelmingly) outside *)
            let junk =
              Fq2.of_bigints params.Params.fp (Bigint.of_int 12345)
                (Bigint.of_int 678)
            in
            Alcotest.(check bool) "junk outside subgroup" false
              (Pairing.Gt.in_subgroup params junk));
        Alcotest.test_case "counters" `Quick test_pairing_counters;
      ] );
    ("pairing-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

let () = Alcotest.run "peace-pairing" suite
