(* Elliptic-curve group law and ECDSA tests, cross-checked against an
   independent affine reference implementation. *)

open Peace_bigint
open Peace_ec

let p256 = Lazy.force Curves.secp256r1
let s160 = Lazy.force Curves.secp160r1
let big = Alcotest.testable Bigint.pp Bigint.equal

let test_rng seed =
  let state = ref seed in
  fun n ->
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      state := (!state * 2685821657736338717) + 1442695040888963407;
      Bytes.set b i (Char.chr ((!state lsr 32) land 0xff))
    done;
    Bytes.unsafe_to_string b

let affine_exn curve pt =
  match Curve.to_affine curve pt with
  | Some xy -> xy
  | None -> Alcotest.fail "unexpected point at infinity"

let test_known_multiples () =
  (* vectors from an independent CPython affine implementation *)
  let k =
    Bigint.of_string
      "0xc51e4753afdec1e6b6c6a5b992f43f8dd0c7a8933072708b6522468b2ffb06fd"
  in
  let x, y = affine_exn p256 (Curve.mul_base p256 k) in
  Alcotest.(check big) "p256 kG.x"
    (Bigint.of_string "0x942c9f408ead9d82d34a1b9a6a827ebe3e2ddf782b448d23be1b6143988ccef4") x;
  Alcotest.(check big) "p256 kG.y"
    (Bigint.of_string "0x8c9eaf6c0d14d992fc63bad3e2496be2eee61cb5b97f65f428ca94a5d0ee19a1") y;
  let x2, _ = affine_exn p256 (Curve.double p256 (Curve.base p256)) in
  Alcotest.(check big) "p256 2G.x"
    (Bigint.of_string "0x7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978") x2;
  let k160 = Bigint.of_string "0xdeadbeefcafebabe0123456789abcdef01234567" in
  let x, y = affine_exn s160 (Curve.mul_base s160 k160) in
  Alcotest.(check big) "s160 kG.x"
    (Bigint.of_string "0x17aa2e605033df5b23b71cfc554e5c5ee68e7dc2") x;
  Alcotest.(check big) "s160 kG.y"
    (Bigint.of_string "0x49375fd4a344d5ae732563ce1a1dc390917d7678") y

let test_group_laws () =
  let curve = s160 in
  let g = Curve.base curve in
  let inf = Curve.infinity curve in
  Alcotest.(check bool) "G + O = G" true (Curve.equal curve g (Curve.add curve g inf));
  Alcotest.(check bool) "O + G = G" true (Curve.equal curve g (Curve.add curve inf g));
  Alcotest.(check bool) "G + (-G) = O" true
    (Curve.is_infinity (Curve.add curve g (Curve.neg curve g)));
  Alcotest.(check bool) "G + G = 2G" true
    (Curve.equal curve (Curve.add curve g g) (Curve.double curve g));
  Alcotest.(check bool) "nG = O" true
    (Curve.is_infinity (Curve.mul_base curve (Curve.order curve)));
  Alcotest.(check bool) "(n-1)G = -G" true
    (Curve.equal curve
       (Curve.mul_base curve (Bigint.pred (Curve.order curve)))
       (Curve.neg curve g));
  Alcotest.(check bool) "0*G = O" true (Curve.is_infinity (Curve.mul_base curve Bigint.zero));
  (* 2G + 3G = 5G *)
  let two_g = Curve.mul_base curve Bigint.two in
  let three_g = Curve.mul_base curve (Bigint.of_int 3) in
  let five_g = Curve.mul_base curve (Bigint.of_int 5) in
  Alcotest.(check bool) "2G + 3G = 5G" true
    (Curve.equal curve five_g (Curve.add curve two_g three_g))

let test_point_validation () =
  Alcotest.check_raises "off-curve point rejected"
    (Invalid_argument "Curve.point: not on curve") (fun () ->
      ignore (Curve.point s160 ~x:Bigint.one ~y:Bigint.one));
  let g = Curve.base s160 in
  Alcotest.(check bool) "base on curve" true (Curve.on_curve s160 g);
  Alcotest.(check bool) "infinity on curve" true
    (Curve.on_curve s160 (Curve.infinity s160))

let test_encoding () =
  let rng = test_rng 99 in
  for _ = 1 to 10 do
    let k = Bigint.random_range rng Bigint.one (Curve.order s160) in
    let pt = Curve.mul_base s160 k in
    (match Curve.decode s160 (Curve.encode s160 pt) with
    | Some pt' -> Alcotest.(check bool) "uncompressed round trip" true (Curve.equal s160 pt pt')
    | None -> Alcotest.fail "decode failed");
    match Curve.decode s160 (Curve.encode s160 ~compress:true pt) with
    | Some pt' -> Alcotest.(check bool) "compressed round trip" true (Curve.equal s160 pt pt')
    | None -> Alcotest.fail "compressed decode failed"
  done;
  (* infinity *)
  (match Curve.decode s160 (Curve.encode s160 (Curve.infinity s160)) with
  | Some pt -> Alcotest.(check bool) "infinity round trip" true (Curve.is_infinity pt)
  | None -> Alcotest.fail "infinity decode failed");
  Alcotest.(check bool) "garbage rejected" true (Curve.decode s160 "garbage" = None);
  Alcotest.(check bool) "empty rejected" true (Curve.decode s160 "" = None);
  (* an x with no curve point must be rejected in compressed form *)
  let bad = "\x02" ^ String.make (Curve.byte_size s160) '\x01' in
  match Curve.decode s160 bad with
  | None -> ()
  | Some pt -> Alcotest.(check bool) "if decodable, must be on curve" true (Curve.on_curve s160 pt)

(* A coordinate at or above p used to be reduced by the field, so
   0x04 ‖ (x + p) ‖ y decoded to the point (x, y): two encodings of one
   point. The secp160r1 point with x = 0 shows it, since x + p still fits
   in 20 bytes. *)
let test_decode_rejects_unreduced () =
  let size = Curve.byte_size s160 in
  let p = Curve.field_order s160 in
  let pt =
    match Curve.decode s160 ("\x02" ^ String.make size '\x00') with
    | Some pt -> pt
    | None -> Alcotest.fail "secp160r1 has a point with x = 0"
  in
  let canonical = Curve.encode s160 pt in
  Alcotest.(check bool) "canonical encoding decodes" true
    (Curve.decode s160 canonical <> None);
  let unreduced_x = "\x04" ^ Bigint.to_bytes_be ~width:size p ^ String.sub canonical (1 + size) size in
  Alcotest.(check bool) "x + p rejected" true (Curve.decode s160 unreduced_x = None);
  Alcotest.(check bool) "compressed x + p rejected" true
    (Curve.decode s160 ("\x02" ^ Bigint.to_bytes_be ~width:size p) = None)

let test_ecdsa_sign_verify () =
  List.iter
    (fun curve ->
      let rng = test_rng 7 in
      let key = Ecdsa.generate curve rng in
      let msg = "beacon message: router-42, expiry 17:00" in
      let signature = Ecdsa.sign curve ~key msg in
      Alcotest.(check bool) "verifies" true
        (Ecdsa.verify curve ~public:key.q msg signature);
      Alcotest.(check bool) "wrong message rejected" false
        (Ecdsa.verify curve ~public:key.q (msg ^ "!") signature);
      let other = Ecdsa.generate curve rng in
      Alcotest.(check bool) "wrong key rejected" false
        (Ecdsa.verify curve ~public:other.q msg signature);
      Alcotest.(check bool) "tampered r rejected" false
        (Ecdsa.verify curve ~public:key.q msg
           { signature with r = Bigint.succ signature.r });
      Alcotest.(check bool) "zero r rejected" false
        (Ecdsa.verify curve ~public:key.q msg { signature with r = Bigint.zero });
      Alcotest.(check bool) "s = n rejected" false
        (Ecdsa.verify curve ~public:key.q msg
           { signature with s = Curve.order curve });
      (* deterministic nonces: same message, same signature *)
      let signature' = Ecdsa.sign curve ~key msg in
      Alcotest.(check bool) "deterministic" true
        (Bigint.equal signature.r signature'.r && Bigint.equal signature.s signature'.s))
    [ s160; p256 ]

let test_ecdsa_serialisation () =
  let rng = test_rng 13 in
  let key = Ecdsa.generate s160 rng in
  let signature = Ecdsa.sign s160 ~key "msg" in
  let bytes = Ecdsa.signature_to_bytes s160 signature in
  Alcotest.(check int) "size" (Ecdsa.signature_size s160) (String.length bytes);
  (match Ecdsa.signature_of_bytes s160 bytes with
  | Some s' ->
    Alcotest.(check big) "r" signature.r s'.r;
    Alcotest.(check big) "s" signature.s s'.s
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "bad length rejected" true
    (Ecdsa.signature_of_bytes s160 (bytes ^ "\x00") = None);
  (* the paper quotes ECDSA-160 signatures at 320 bits = 40 bytes + a bit of
     slack; ours is 42 bytes because n is 161 bits *)
  Alcotest.(check int) "ecdsa-160 size" 42 (Ecdsa.signature_size s160)

let test_external_ecdsa_vector () =
  (* a signature produced by an independent CPython implementation with an
     explicit nonce; our verifier must accept it, and reject it under the
     wrong key/message *)
  let public =
    Curve.point s160
      ~x:(Bigint.of_string "0xd463026b5115d49f639b1bb411b9a9af37aa79be")
      ~y:(Bigint.of_string "0xf17c1e630abccc30e297d91d00ac4522cbc1f0fa")
  in
  let signature =
    {
      Ecdsa.r = Bigint.of_string "0xbb1a9b3dfb4d614e2ce5eb235c35cb97ae72e4fb";
      s = Bigint.of_string "0x68e38a09c173a379a492441b3cba9f1aae36f91c";
    }
  in
  let msg = "externally signed message" in
  Alcotest.(check bool) "external signature verifies" true
    (Ecdsa.verify s160 ~public msg signature);
  Alcotest.(check bool) "wrong message rejected" false
    (Ecdsa.verify s160 ~public "other" signature);
  Alcotest.(check bool) "wrong key rejected" false
    (Ecdsa.verify s160 ~public:(Curve.base s160) msg signature);
  (* the private key matching the vector reproduces its own valid sigs *)
  let key =
    {
      Ecdsa.d = Bigint.of_string "0x1234567890abcdef1234567890abcdef12345678";
      q = public;
    }
  in
  Alcotest.(check bool) "same key signs and verifies" true
    (Ecdsa.verify s160 ~public msg (Ecdsa.sign s160 ~key msg))

(* Scalars at the edges of the reduction modulo n, and random ones up to
   2n. *)
let edge_scalar_gen curve =
  let n = Curve.order curve in
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ Bigint.zero; Bigint.one; Bigint.pred n; n; Bigint.succ n ]);
        (1, map (fun n -> Bigint.of_int n) (int_bound 300));
        (4, map (fun seed -> Bigint.random_below (test_rng seed) (Bigint.shift_left n 1)) int);
      ])

(* a random multiple of G, its negation, G itself and infinity *)
let ec_points curve =
  let pt = Curve.mul_base curve (Bigint.of_string "0x1234567890abcdef1234567890abcdef") in
  [| pt; Curve.neg curve pt; Curve.base curve; Curve.infinity curve |]

let ec_mul_differential curve =
  let points = ec_points curve in
  let arb =
    QCheck.make
      ~print:(fun (k, i) -> Printf.sprintf "k=%s point=%d" (Bigint.to_string k) i)
      QCheck.Gen.(pair (edge_scalar_gen curve) (int_bound (Array.length points - 1)))
  in
  QCheck.Test.make
    ~name:("mul matches fixed-window oracle at " ^ Curve.name curve)
    ~count:40 arb
    (fun (k, i) ->
      (* both NIST curves have a = -3 *)
      Curve.equal curve (Curve.mul curve k points.(i))
        (Oracles.ec_mul_fixed_window curve ~a:(Bigint.of_int (-3)) k points.(i)))

let ec_mul2_differential curve =
  let points = ec_points curve in
  let n = Array.length points in
  let arb =
    QCheck.make
      ~print:(fun ((k1, k2), (i, j)) ->
        Printf.sprintf "k1=%s k2=%s points=%d,%d" (Bigint.to_string k1)
          (Bigint.to_string k2) i j)
      QCheck.Gen.(
        pair
          (pair (edge_scalar_gen curve) (edge_scalar_gen curve))
          (pair (int_bound (n - 1)) (int_bound (n - 1))))
  in
  QCheck.Test.make
    ~name:("mul2 matches mul + add at " ^ Curve.name curve)
    ~count:30 arb
    (fun ((k1, k2), (i, j)) ->
      Curve.equal curve
        (Curve.mul2 curve k1 points.(i) k2 points.(j))
        (Curve.add curve (Curve.mul curve k1 points.(i)) (Curve.mul curve k2 points.(j))))

let test_mul2_counts () =
  let c = Peace_obs.Registry.counter "ec.scalar_mul" in
  let before = Peace_obs.Registry.Counter.value c in
  let g = Curve.base s160 in
  let r = Curve.mul2 s160 (Bigint.pred (Curve.order s160)) g Bigint.one g in
  Alcotest.(check int) "one mul2 counts two scalar mults" 2
    (Peace_obs.Registry.Counter.value c - before);
  Alcotest.(check bool) "(n-1)G + G = O" true (Curve.is_infinity r)

(* Arbitrary bytes, and bytes of the lengths the decoders accept. *)
let bytes_gen lengths =
  QCheck.Gen.(
    frequency
      [
        (1, string_size (int_bound 64));
        (3, oneofl lengths >>= fun n -> string_size (return n));
      ])

let decode_total curve =
  let size = Curve.byte_size curve in
  let arb =
    QCheck.make ~print:(fun s -> Printf.sprintf "%S" s)
      QCheck.Gen.(
        pair (oneofl [ '\x00'; '\x02'; '\x03'; '\x04'; '\x05' ])
          (bytes_gen [ 0; size; 2 * size ])
        >|= fun (c, s) -> String.make 1 c ^ s)
  in
  QCheck.Test.make ~name:("decode total at " ^ Curve.name curve) ~count:200 arb
    (fun s ->
      match Curve.decode curve s with
      | None -> true
      | Some pt -> Curve.on_curve curve pt)

let ecdsa_verify_total =
  let key = Ecdsa.generate s160 (test_rng 5) in
  let width = Ecdsa.signature_size s160 in
  let arb = QCheck.make ~print:(fun s -> Printf.sprintf "%S" s) (bytes_gen [ width ]) in
  QCheck.Test.make ~name:"signature decode + verify total" ~count:200 arb (fun s ->
      match Ecdsa.signature_of_bytes s160 s with
      | None -> String.length s <> width
      | Some signature -> not (Ecdsa.verify s160 ~public:key.q "msg" signature))

let qcheck_tests =
  let scalar_gen =
    QCheck.map
      (fun seed -> Bigint.random_range (test_rng seed) Bigint.one (Curve.order s160))
      QCheck.int
  in
  let scalar = QCheck.make ~print:Bigint.to_string (QCheck.gen scalar_gen) in
  [
    QCheck.Test.make ~name:"mul distributes over add" ~count:30
      (QCheck.pair scalar scalar)
      (fun (j, k) ->
        let lhs = Curve.mul_base s160 (Bigint.erem (Bigint.add j k) (Curve.order s160)) in
        let rhs = Curve.add s160 (Curve.mul_base s160 j) (Curve.mul_base s160 k) in
        Curve.equal s160 lhs rhs);
    QCheck.Test.make ~name:"mul is associative with scalar mul" ~count:20
      (QCheck.pair scalar scalar)
      (fun (j, k) ->
        let lhs = Curve.mul s160 j (Curve.mul_base s160 k) in
        let rhs = Curve.mul_base s160 (Modular.mul j k (Curve.order s160)) in
        Curve.equal s160 lhs rhs);
    QCheck.Test.make ~name:"multiples stay on curve" ~count:30 scalar
      (fun k -> Curve.on_curve s160 (Curve.mul_base s160 k));
    QCheck.Test.make ~name:"ecdsa round trip random messages" ~count:15
      QCheck.string
      (fun msg ->
        let key = Ecdsa.generate s160 (test_rng 21) in
        Ecdsa.verify s160 ~public:key.q msg (Ecdsa.sign s160 ~key msg));
    ec_mul_differential s160;
    ec_mul_differential p256;
    ec_mul2_differential s160;
    ec_mul2_differential p256;
    decode_total s160;
    decode_total p256;
    ecdsa_verify_total;
  ]

let suite =
  [
    ( "curve",
      [
        Alcotest.test_case "known multiples" `Quick test_known_multiples;
        Alcotest.test_case "group laws" `Quick test_group_laws;
        Alcotest.test_case "point validation" `Quick test_point_validation;
        Alcotest.test_case "encoding" `Quick test_encoding;
        Alcotest.test_case "decode rejects unreduced coordinates" `Quick
          test_decode_rejects_unreduced;
        Alcotest.test_case "mul2 counts two scalar mults" `Quick test_mul2_counts;
      ] );
    ( "ecdsa",
      [
        Alcotest.test_case "sign/verify" `Quick test_ecdsa_sign_verify;
        Alcotest.test_case "serialisation" `Quick test_ecdsa_serialisation;
        Alcotest.test_case "external vector" `Quick test_external_ecdsa_vector;
      ] );
    ("ec-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

let () = Alcotest.run "peace-ec" suite
