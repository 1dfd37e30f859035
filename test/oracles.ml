(* Reference implementations kept only as test oracles. Each is the routine
   the library used before it was replaced by a faster one; the
   differential properties in test_bigint.ml, test_ec.ml and
   test_pairing.ml check the replacement against it. *)

open Peace_bigint
open Peace_ec
open Peace_pairing

(* --- Montgomery multiplication: separated-operand CIOS with a (k+2)-limb
   temporary accumulator and bounds-checked limb access --- *)

let limb_bits = Bigint.Internal.limb_bits
let limb_mask = Bigint.Internal.limb_mask

(* inverse of odd x modulo 2^limb_bits by Newton-Hensel lifting *)
let limb_inverse x =
  let inv = ref x in
  for _ = 1 to 6 do
    inv := (!inv * (2 - (x * !inv))) land limb_mask
  done;
  !inv

let geq_mod a m k =
  let rec scan i =
    if i < 0 then true
    else if a.(i) > m.(i) then true
    else if a.(i) < m.(i) then false
    else scan (i - 1)
  in
  scan (k - 1)

let sub_mod_in_place a m k =
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let d = a.(i) - m.(i) - !borrow in
    if d < 0 then (a.(i) <- d + (1 lsl limb_bits); borrow := 1)
    else (a.(i) <- d; borrow := 0)
  done

(* [cios_mul ctx a b] on raw limb vectors of [ctx]'s width *)
let cios_mul ctx a b =
  let m = Bigint.Internal.magnitude (Mont.modulus ctx) in
  let k = Array.length m in
  let m' = (limb_mask + 1 - limb_inverse m.(0)) land limb_mask in
  let t = Array.make (k + 2) 0 in
  for i = 0 to k - 1 do
    let ai = a.(i) in
    (* t += a_i * b *)
    let c = ref 0 in
    for j = 0 to k - 1 do
      let s = t.(j) + (ai * b.(j)) + !c in
      t.(j) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    let s = t.(k) + !c in
    t.(k) <- s land limb_mask;
    t.(k + 1) <- t.(k + 1) + (s lsr limb_bits);
    (* reduce one limb *)
    let u = (t.(0) * m') land limb_mask in
    let s0 = t.(0) + (u * m.(0)) in
    let c = ref (s0 lsr limb_bits) in
    for j = 1 to k - 1 do
      let s = t.(j) + (u * m.(j)) + !c in
      t.(j - 1) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    let s = t.(k) + !c in
    t.(k - 1) <- s land limb_mask;
    t.(k) <- t.(k + 1) + (s lsr limb_bits);
    t.(k + 1) <- 0
  done;
  let r = Array.sub t 0 k in
  if t.(k) > 0 || geq_mod r m k then sub_mod_in_place r m k;
  r

(* --- Scalar multiplication on y² = x³ + ax + b as G1 computed it before
   wNAF: unsigned 4-bit fixed window over Jacobian coordinates, with full
   Jacobian additions of table entries. The doubling's M = 3X² + a·Z⁴ is
   computed in full for any a. --- *)

type jac = Jinf | Jac of { jx : Mont.elt; jy : Mont.elt; jz : Mont.elt }

let jac_double fp a = function
  | Jinf -> Jinf
  | Jac { jx; jy; jz } ->
    if Mont.is_zero fp jy then Jinf
    else begin
      let xx = Mont.sqr fp jx in
      let yy = Mont.sqr fp jy in
      let yyyy = Mont.sqr fp yy in
      let s =
        let t = Mont.mul fp jx yy in
        Mont.add fp (Mont.add fp t t) (Mont.add fp t t)
      in
      let zz = Mont.sqr fp jz in
      let m =
        Mont.add fp (Mont.add fp (Mont.add fp xx xx) xx) (Mont.mul fp a (Mont.sqr fp zz))
      in
      let x3 = Mont.sub fp (Mont.sqr fp m) (Mont.add fp s s) in
      let eight_yyyy =
        let t2 = Mont.add fp yyyy yyyy in
        let t4 = Mont.add fp t2 t2 in
        Mont.add fp t4 t4
      in
      let y3 = Mont.sub fp (Mont.mul fp m (Mont.sub fp s x3)) eight_yyyy in
      let z3 =
        let t = Mont.mul fp jy jz in
        Mont.add fp t t
      in
      Jac { jx = x3; jy = y3; jz = z3 }
    end

(* mixed addition: q is affine *)
let jac_add_affine fp a p qx qy =
  match p with
  | Jinf -> Jac { jx = qx; jy = qy; jz = Mont.one fp }
  | Jac { jx; jy; jz } ->
    let z1z1 = Mont.sqr fp jz in
    let u2 = Mont.mul fp qx z1z1 in
    let s2 = Mont.mul fp (Mont.mul fp qy jz) z1z1 in
    if Mont.equal fp jx u2 then
      if Mont.equal fp jy s2 then jac_double fp a p else Jinf
    else begin
      let h = Mont.sub fp u2 jx in
      let hh = Mont.sqr fp h in
      let hhh = Mont.mul fp h hh in
      let r = Mont.sub fp s2 jy in
      let v = Mont.mul fp jx hh in
      let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp r) hhh) (Mont.add fp v v) in
      let y3 =
        Mont.sub fp (Mont.mul fp r (Mont.sub fp v x3)) (Mont.mul fp jy hhh)
      in
      Jac { jx = x3; jy = y3; jz = Mont.mul fp jz h }
    end

(* full Jacobian + Jacobian addition, for window-table entries *)
let jac_add fp a p q =
  match (p, q) with
  | Jinf, r | r, Jinf -> r
  | Jac p1, Jac p2 ->
    let z1z1 = Mont.sqr fp p1.jz in
    let z2z2 = Mont.sqr fp p2.jz in
    let u1 = Mont.mul fp p1.jx z2z2 in
    let u2 = Mont.mul fp p2.jx z1z1 in
    let s1 = Mont.mul fp (Mont.mul fp p1.jy p2.jz) z2z2 in
    let s2 = Mont.mul fp (Mont.mul fp p2.jy p1.jz) z1z1 in
    if Mont.equal fp u1 u2 then
      if Mont.equal fp s1 s2 then jac_double fp a p else Jinf
    else begin
      let h = Mont.sub fp u2 u1 in
      let hh = Mont.sqr fp h in
      let hhh = Mont.mul fp h hh in
      let r = Mont.sub fp s2 s1 in
      let v = Mont.mul fp u1 hh in
      let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp r) hhh) (Mont.add fp v v) in
      let y3 =
        Mont.sub fp (Mont.mul fp r (Mont.sub fp v x3)) (Mont.mul fp s1 hhh)
      in
      Jac { jx = x3; jy = y3; jz = Mont.mul fp (Mont.mul fp p1.jz p2.jz) h }
    end

let jac_to_affine fp = function
  | Jinf -> None
  | Jac { jx; jy; jz } ->
    let zinv = Mont.inv fp jz in
    let zinv2 = Mont.sqr fp zinv in
    Some
      ( Mont.to_bigint fp (Mont.mul fp jx zinv2),
        Mont.to_bigint fp (Mont.mul fp jy (Mont.mul fp zinv2 zinv)) )

(* k·(px, py) for k >= 0 on the curve with coefficient [a] (Montgomery
   form), as affine bigints; [None] for infinity *)
let mul_fixed_window fp a k px py =
  let nbits = Bigint.num_bits k in
  if nbits = 0 then None
  else if nbits <= 8 then begin
    (* short scalars: plain double-and-add, no table overhead *)
    let acc = ref Jinf in
    for i = nbits - 1 downto 0 do
      acc := jac_double fp a !acc;
      if Bigint.testbit k i then acc := jac_add_affine fp a !acc px py
    done;
    jac_to_affine fp !acc
  end
  else begin
    (* 4-bit fixed window *)
    let table = Array.make 16 Jinf in
    table.(1) <- Jac { jx = px; jy = py; jz = Mont.one fp };
    for i = 2 to 15 do
      table.(i) <- jac_add_affine fp a table.(i - 1) px py
    done;
    let nwin = (nbits + 3) / 4 in
    let window w =
      let v = ref 0 in
      for b = 3 downto 0 do
        let idx = (4 * w) + b in
        v := (!v lsl 1) lor (if idx < nbits && Bigint.testbit k idx then 1 else 0)
      done;
      !v
    in
    let acc = ref table.(window (nwin - 1)) in
    for w = nwin - 2 downto 0 do
      acc := jac_double fp a !acc;
      acc := jac_double fp a !acc;
      acc := jac_double fp a !acc;
      acc := jac_double fp a !acc;
      let v = window w in
      if v <> 0 then acc := jac_add fp a !acc table.(v)
    done;
    jac_to_affine fp !acc
  end

let g1_mul_fixed_window params k p =
  let fp = params.Params.fp in
  if Bigint.sign k < 0 then invalid_arg "G1.mul: negative scalar";
  match G1.coords p with
  | None -> G1.infinity
  | Some (px, py) -> (
    match mul_fixed_window fp (Mont.one fp) k px py with
    | None -> G1.infinity
    | Some (x, y) -> G1.of_affine params ~x ~y)

(* [Curve.mul]: the scalar reduced modulo the group order *)
let ec_mul_fixed_window curve ~a k p =
  let fp = Curve.field curve in
  match p with
  | Curve.Infinity -> Curve.infinity curve
  | Curve.Affine { x = px; y = py } -> (
    let k = Bigint.erem k (Curve.order curve) in
    match mul_fixed_window fp (Mont.of_bigint fp a) k px py with
    | None -> Curve.infinity curve
    | Some (x, y) -> Curve.point curve ~x ~y)
