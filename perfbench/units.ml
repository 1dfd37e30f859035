(* The unit-cost pass: times the public L0 (Mont) and L1 (G1, pairing, GT,
   secp160r1) functions, plus the scheme and message codecs, at one set of
   pairing parameters. Operation counts times these costs give each layer
   its predicted time. *)

open Peace_bigint
open Peace_pairing
open Peace_groupsig

type mont = { mul_us : float; sqr_us : float; inv_us : float }

type t = {
  fp512 : mont;  (* the 512-bit field of the [light] preset *)
  p160 : mont;  (* the secp160r1 field *)
  fp : mont;  (* the field of the workload's own pairing parameters *)
  g1_mul_ms : float;
  g1_decode_ms : float;
  tate_ms : float;
  tate_product2_ms : float;
  gt_pow_ms : float;
  hash_to_g1_ms : float;
  ec_scalar_mul_ms : float;
  ecdsa_verify_ms : float;
  sign_ms : float;
  verify_ms : float;  (* at the workload's URL size *)
  sig_decode_ms : float;
  sign_ops : Counters.snapshot;  (* operations one sign performs *)
  verify_ops : Counters.snapshot;  (* ... and one verify at the URL size *)
}

let ms s = s *. 1000.0
let us s = s *. 1e6

let mont_costs rng modulus =
  let ctx = Mont.create modulus in
  let elt () = Mont.of_bigint ctx (Bigint.random_below rng modulus) in
  let a = elt () and b = elt () in
  {
    mul_us = us (Stats.time_per_call ~reps:7 (fun () -> Mont.mul ctx a b));
    sqr_us = us (Stats.time_per_call ~reps:7 (fun () -> Mont.sqr ctx a));
    inv_us = us (Stats.time_per_call ~reps:7 (fun () -> Mont.inv ctx a));
  }

let ops_of f =
  let before = Counters.snapshot () in
  ignore (Sys.opaque_identity (f ()));
  Counters.diff (Counters.snapshot ()) before

let measure ~params ~seed =
  let rng = Peace_hash.Drbg.bytes_fn (Peace_hash.Drbg.create ~seed ()) in
  let light = Lazy.force Params.light in
  let curve = Lazy.force Peace_ec.Curves.secp160r1 in
  let q = params.Params.q in
  let p1 = G1.random params rng and p2 = G1.random params rng in
  let k = Bigint.random_below rng q in
  let encoded = G1.encode params p1 in
  let e = Pairing.tate params p1 p2 in
  let counter = ref 0 in
  let issuer = Group_sig.setup params rng in
  let gpk = issuer.Group_sig.gpk in
  let gsk = Group_sig.issue issuer ~grp:Bigint.one rng in
  let msg = "peacebench unit-cost transcript" in
  let sg = Group_sig.sign gpk gsk ~rng ~msg in
  let sig_bytes = Group_sig.signature_to_bytes gpk sg in
  let ec_key = Peace_ec.Ecdsa.generate curve rng in
  let ec_sig = Peace_ec.Ecdsa.sign curve ~key:ec_key msg in
  let ec_k = Bigint.random_below rng (Peace_ec.Curve.order curve) in
  let t f = ms (Stats.time_per_call ~reps:5 ~batch_s:0.1 f) in
  let fp = mont_costs rng params.Params.p in
  let fp512 =
    if Bigint.equal params.Params.p light.Params.p then fp else mont_costs rng light.Params.p
  in
  {
    fp512;
    p160 = mont_costs rng (Peace_ec.Curve.field_order curve);
    fp;
    g1_mul_ms = t (fun () -> G1.mul params k p1);
    g1_decode_ms = t (fun () -> G1.decode params encoded);
    tate_ms = t (fun () -> Pairing.tate params p1 p2);
    tate_product2_ms = t (fun () -> Pairing.tate_product params [ (p1, p2); (p2, p1) ]);
    gt_pow_ms = t (fun () -> Pairing.Gt.pow params e k);
    hash_to_g1_ms =
      t (fun () ->
          incr counter;
          G1.hash_to_point params (string_of_int !counter));
    ec_scalar_mul_ms = t (fun () -> Peace_ec.Curve.mul curve ec_k (Peace_ec.Curve.base curve));
    ecdsa_verify_ms =
      t (fun () -> Peace_ec.Ecdsa.verify curve ~public:ec_key.Peace_ec.Ecdsa.q msg ec_sig);
    sign_ms = t (fun () -> Group_sig.sign gpk gsk ~rng ~msg);
    verify_ms = t (fun () -> Group_sig.verify gpk ~url:[] ~msg sg);
    sig_decode_ms = t (fun () -> Group_sig.signature_of_bytes gpk sig_bytes);
    sign_ops = ops_of (fun () -> Group_sig.sign gpk gsk ~rng ~msg);
    verify_ops = ops_of (fun () -> Group_sig.verify gpk ~url:[] ~msg sg);
  }

(* Operation counts, per call or per handshake. *)
type ops = {
  pairings : float;
  g1_muls : float;
  gt_exps : float;
  hashes_to_g1 : float;
  ec_scalar_muls : float;
  g1_decodes : float;
}

let ops_of_snapshot (s : Counters.snapshot) =
  {
    pairings = float_of_int s.Counters.pairings;
    g1_muls = float_of_int s.Counters.g1_mul;
    gt_exps = float_of_int s.Counters.gt_exp;
    hashes_to_g1 = float_of_int s.Counters.hash_to_g1;
    ec_scalar_muls = 0.0;
    g1_decodes = 0.0;
  }

(* Predicted milliseconds for counted operations. Pairings are priced as
   single Tate pairings, so the shared Miller loop of [tate_product] shows
   up as a negative residual. *)
let predict_ms u o =
  (o.pairings *. u.tate_ms) +. (o.g1_muls *. u.g1_mul_ms) +. (o.gt_exps *. u.gt_pow_ms)
  +. (o.hashes_to_g1 *. u.hash_to_g1_ms)
  +. (o.ec_scalar_muls *. u.ec_scalar_mul_ms)
  +. (o.g1_decodes *. u.g1_decode_ms)
