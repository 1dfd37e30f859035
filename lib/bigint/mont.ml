(* Montgomery multiplication (FIOS) on 30-bit limbs.

   All elements are int arrays of exactly [ctx.k] limbs. The multiplication
   loop keeps every intermediate below 2^62, within OCaml's native int. *)

(* Literal constants, so the compiler folds them into the shifts and masks
   of the inner loops; the assertion ties them to [Bigint]'s limb size. *)
let limb_bits = 30
let limb_mask = (1 lsl limb_bits) - 1
let () = assert (limb_bits = Bigint.Internal.limb_bits)

type ctx = {
  m : int array;          (* modulus limbs, length k *)
  k : int;
  m' : int;               (* -m^{-1} mod 2^limb_bits *)
  r2 : int array;         (* R^2 mod m, Montgomery form of R *)
  one_m : int array;      (* R mod m = Montgomery form of 1 *)
  modulus : Bigint.t;
}

type elt = int array

let invalid fmt = invalid_arg fmt

(* inverse of odd x modulo 2^limb_bits by Newton-Hensel lifting *)
let limb_inverse x =
  let inv = ref x in
  for _ = 1 to 6 do
    inv := (!inv * (2 - (x * !inv))) land limb_mask
  done;
  !inv

let fixed_width k mag =
  let v = Array.make k 0 in
  Array.blit mag 0 v 0 (Array.length mag);
  v

let to_mag v = v

(* compare fixed-width a with modulus limbs *)
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

(* Montgomery multiplication with the reduction fused into the product loop
   (FIOS): row i adds a_i·b and u·m to the accumulator and shifts it down one
   limb in the same pass. Every step stays below 2^62 — t_j + a_i·b_j +
   u·m_j + carry < 2^30 + 2·2^60 + 2^32 — so one carry suffices. The
   accumulator is the k-limb result itself plus one overflow limb in a local,
   so a call allocates only its result. The width check makes the unchecked
   limb accesses safe even for an element from another context. *)
let mont_mul ctx a b =
  let k = ctx.k and m = ctx.m and m' = ctx.m' in
  if Array.length a <> k || Array.length b <> k then
    invalid "Mont.mul: element width does not match the context";
  let t = Array.make k 0 in
  let top = ref 0 in
  for i = 0 to k - 1 do
    let ai = Array.unsafe_get a i in
    let t0 = Array.unsafe_get t 0 + (ai * Array.unsafe_get b 0) in
    (* u zeroes the low limb; only the low bits of the product matter *)
    let u = (t0 * m') land limb_mask in
    let c = ref ((t0 + (u * Array.unsafe_get m 0)) lsr limb_bits) in
    for j = 1 to k - 1 do
      let s =
        Array.unsafe_get t j
        + (ai * Array.unsafe_get b j)
        + (u * Array.unsafe_get m j)
        + !c
      in
      Array.unsafe_set t (j - 1) (s land limb_mask);
      c := s lsr limb_bits
    done;
    let s = !top + !c in
    Array.unsafe_set t (k - 1) (s land limb_mask);
    top := s lsr limb_bits
  done;
  if !top > 0 || geq_mod t m k then sub_mod_in_place t m k;
  t

let create modulus =
  if Bigint.compare modulus (Bigint.of_int 3) < 0 then
    invalid "Mont.create: modulus too small";
  if Bigint.is_even modulus then invalid "Mont.create: even modulus";
  let mag = Bigint.Internal.magnitude modulus in
  let k = Array.length mag in
  let m = Array.copy mag in
  let m' = (limb_mask + 1 - limb_inverse m.(0)) land limb_mask in
  let r = Bigint.shift_left Bigint.one (k * limb_bits) in
  let one_m = Bigint.erem r modulus in
  let r2 = Bigint.erem (Bigint.mul r r) modulus in
  {
    m;
    k;
    m';
    r2 = fixed_width k (Bigint.Internal.magnitude r2);
    one_m = fixed_width k (Bigint.Internal.magnitude one_m);
    modulus;
  }

let modulus ctx = ctx.modulus
let num_limbs ctx = ctx.k

let of_bigint ctx x =
  let x = Bigint.erem x ctx.modulus in
  let v = fixed_width ctx.k (Bigint.Internal.magnitude x) in
  mont_mul ctx v ctx.r2

let to_bigint ctx x =
  let one_raw = Array.make ctx.k 0 in
  one_raw.(0) <- 1;
  Bigint.Internal.of_magnitude (to_mag (mont_mul ctx x one_raw))

let zero ctx = Array.make ctx.k 0
let one ctx = Array.copy ctx.one_m

let add ctx a b =
  let k = ctx.k in
  let r = Array.make k 0 in
  let carry = ref 0 in
  for i = 0 to k - 1 do
    let s = a.(i) + b.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  if !carry > 0 || geq_mod r ctx.m k then sub_mod_in_place r ctx.m k;
  r

let sub ctx a b =
  let k = ctx.k in
  let r = Array.make k 0 in
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let d = a.(i) - b.(i) - !borrow in
    if d < 0 then (r.(i) <- d + (1 lsl limb_bits); borrow := 1)
    else (r.(i) <- d; borrow := 0)
  done;
  if !borrow = 1 then begin
    (* add modulus back *)
    let carry = ref 0 in
    for i = 0 to k - 1 do
      let s = r.(i) + ctx.m.(i) + !carry in
      r.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done
  end;
  r

let is_zero _ctx a = Array.for_all (fun l -> l = 0) a

let neg ctx a = if is_zero ctx a then Array.copy a else sub ctx (zero ctx) a
let mul = mont_mul
let sqr ctx a = mont_mul ctx a a
let equal _ctx a b = a = b

let pow ctx b e =
  if Bigint.sign e < 0 then invalid "Mont.pow: negative exponent";
  if Bigint.is_zero e then one ctx
  else begin
    (* 4-bit fixed window *)
    let table = Array.make 16 (one ctx) in
    table.(1) <- Array.copy b;
    for i = 2 to 15 do
      table.(i) <- mont_mul ctx table.(i - 1) b
    done;
    let nbits = Bigint.num_bits e in
    let nwin = (nbits + 3) / 4 in
    let window w =
      (* bits [4w, 4w+4) of e *)
      let v = ref 0 in
      for b = 3 downto 0 do
        let idx = (4 * w) + b in
        v := (!v lsl 1) lor (if idx < nbits && Bigint.testbit e idx then 1 else 0)
      done;
      !v
    in
    let acc = ref (Array.copy table.(window (nwin - 1))) in
    for w = nwin - 2 downto 0 do
      acc := sqr ctx !acc;
      acc := sqr ctx !acc;
      acc := sqr ctx !acc;
      acc := sqr ctx !acc;
      let v = window w in
      if v <> 0 then acc := mont_mul ctx !acc table.(v)
    done;
    !acc
  end

let of_int ctx v = of_bigint ctx (Bigint.of_int v)

let inv ctx a =
  (* from Montgomery form -> canonical -> extended gcd -> back *)
  let x = to_bigint ctx a in
  if Bigint.is_zero x then raise Division_by_zero;
  let rec egcd a b =
    if Bigint.is_zero b then (a, Bigint.one, Bigint.zero)
    else begin
      let q, r = Bigint.divmod a b in
      let g, s, t = egcd b r in
      (g, t, Bigint.sub s (Bigint.mul q t))
    end
  in
  let g, s, _ = egcd x ctx.modulus in
  if not (Bigint.is_one g) then raise Division_by_zero;
  of_bigint ctx s

module Internal = struct
  let limbs (x : elt) = x
  let of_limbs (x : int array) : elt = x
end
