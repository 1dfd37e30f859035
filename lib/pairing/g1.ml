(* The pairing group on E : y² = x³ + x over F_p: {!Peace_ec.Curve}'s
   group law with the pairing's framing — exponentiation counting, the
   fixed-width encoding, the q-subgroup check and the hash H₀. *)

open Peace_bigint
open Peace_hash
open Peace_ec

type point = Curve.point

let curve params = params.Params.curve
let infinity = Curve.Infinity
let is_infinity = Curve.is_infinity
let of_affine params ~x ~y = Curve.point (curve params) ~x ~y
let generator params = Curve.base (curve params)
let to_affine params = Curve.to_affine (curve params)
let coords = function Curve.Infinity -> None | Curve.Affine { x; y } -> Some (x, y)
let neg params = Curve.neg (curve params)
let equal params = Curve.equal (curve params)
let on_curve params = Curve.on_curve (curve params)
let double params = Curve.double (curve params)
let add params = Curve.add (curve params)

let mul params k p =
  Counters.count_g1_mul ();
  Curve.lin_comb (curve params) [ (k, p) ]

let mul2 params k1 p1 k2 p2 =
  Counters.count_g1_mul ();
  Counters.count_g1_mul ();
  Curve.lin_comb (curve params) [ (k1, p1); (k2, p2) ]

let in_q_subgroup params p =
  is_infinity (Curve.lin_comb (curve params) [ (params.Params.q, p) ])

let in_subgroup params p =
  is_infinity p || (on_curve params p && in_q_subgroup params p)

let field_width params = (Bigint.num_bits params.Params.p + 7) / 8

let hash_to_point params msg =
  Counters.count_hash_to_g1 ();
  let p = params.Params.p in
  let width = field_width params in
  let rec attempt counter =
    if counter > 1000 then failwith "G1.hash_to_point: no point found"
    else begin
      let seed =
        Hmac.hkdf ~info:"peace-h2c" (msg ^ string_of_int counter) (width + 8)
      in
      let x = Bigint.erem (Bigint.of_bytes_be seed) p in
      (* (0, 0), the one point with y = 0, clears to infinity *)
      match Curve.lift (curve params) x with
      | None -> attempt (counter + 1)
      | Some pt ->
        let cleared = Curve.lin_comb (curve params) [ (params.Params.h, pt) ] in
        if is_infinity cleared then attempt (counter + 1) else cleared
    end
  in
  attempt 0

let random params rng =
  let scalar = Bigint.random_range rng Bigint.one params.Params.q in
  mul params scalar (generator params)

let encode params p =
  let width = field_width params in
  match to_affine params p with
  | None -> String.make (width + 1) '\000'
  | Some (x, y) ->
    let parity = if Bigint.is_even y then "\x02" else "\x03" in
    parity ^ Bigint.to_bytes_be ~width x

let decode params s =
  let width = field_width params in
  if String.length s <> width + 1 then None
  else
    match s.[0] with
    | '\x00' ->
      if String.for_all (fun c -> c = '\000') s then Some infinity else None
    | '\x02' | '\x03' -> begin
      let x = Bigint.of_bytes_be (String.sub s 1 width) in
      (* unlike the paper's prime-order MNT G1, the type-A curve has a
         large cofactor: reject on-curve points outside the q-subgroup
         at the trust boundary (small-subgroup defence) *)
      match Curve.decompress (curve params) x ~odd:(s.[0] = '\x03') with
      | Some pt when in_q_subgroup params pt -> Some pt
      | Some _ | None -> None
    end
    | _ -> None

let pp params = Curve.pp_point (curve params)
