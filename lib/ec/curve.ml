(* The group law of short Weierstrass curves y² = x³ + ax + b over F_p,
   shared by ECDSA, the pairing group G1 and parameter generation.

   Points are affine in Montgomery form. Single additions and doublings
   use one field inversion each; scalar multiplication runs in Jacobian
   coordinates, where (X, Y, Z) represents (X/Z², Y/Z³), and converts
   back once. *)

open Peace_bigint

(* How a doubling forms M = 3X² + a·Z⁴: a = −3 (the NIST curves) and
   a = 1 (the pairing curve) each skip the multiplication by a. *)
type doubling = A_minus3 | A_one | A_general

type point = Infinity | Affine of { x : Mont.elt; y : Mont.elt }

type t = {
  curve_name : string;
  fp : Mont.ctx;
  a : Mont.elt;
  b : Mont.elt;
  doubling : doubling;
  base_point : point;
  n : Bigint.t;
  p : Bigint.t;
  size : int; (* bytes per field element *)
}

let name c = c.curve_name
let field c = c.fp
let field_order c = c.p
let order c = c.n
let base c = c.base_point
let byte_size c = c.size
let infinity _ = Infinity
let is_infinity = function Infinity -> true | Affine _ -> false

(* y² = x³ + ax + b in Montgomery form *)
let on_curve_raw c x y =
  let fp = c.fp in
  let y2 = Mont.sqr fp y in
  let x3 = Mont.mul fp (Mont.sqr fp x) x in
  Mont.equal fp y2 (Mont.add fp (Mont.add fp x3 (Mont.mul fp c.a x)) c.b)

let on_curve c = function
  | Infinity -> true
  | Affine { x; y } -> on_curve_raw c x y

let affine c ~x ~y =
  let x = Mont.of_bigint c.fp x and y = Mont.of_bigint c.fp y in
  if on_curve_raw c x y then Some (Affine { x; y }) else None

let point c ~x ~y =
  match affine c ~x ~y with
  | Some pt -> pt
  | None -> invalid_arg "Curve.point: not on curve"

let to_affine c = function
  | Infinity -> None
  | Affine { x; y } -> Some (Mont.to_bigint c.fp x, Mont.to_bigint c.fp y)

let neg c = function
  | Infinity -> Infinity
  | Affine { x; y } -> Affine { x; y = Mont.neg c.fp y }

let equal c p q =
  match (p, q) with
  | Infinity, Infinity -> true
  | Infinity, Affine _ | Affine _, Infinity -> false
  | Affine a, Affine b -> Mont.equal c.fp a.x b.x && Mont.equal c.fp a.y b.y

let double c p =
  let fp = c.fp in
  match p with
  | Infinity -> Infinity
  | Affine { x; y } ->
    if Mont.is_zero fp y then Infinity
    else begin
      (* λ = (3x² + a) / 2y *)
      let xx = Mont.sqr fp x in
      let num = Mont.add fp (Mont.add fp (Mont.add fp xx xx) xx) c.a in
      let lambda = Mont.mul fp num (Mont.inv fp (Mont.add fp y y)) in
      let x3 = Mont.sub fp (Mont.sqr fp lambda) (Mont.add fp x x) in
      let y3 = Mont.sub fp (Mont.mul fp lambda (Mont.sub fp x x3)) y in
      Affine { x = x3; y = y3 }
    end

let add c p q =
  let fp = c.fp in
  match (p, q) with
  | Infinity, r | r, Infinity -> r
  | Affine a, Affine b ->
    if Mont.equal fp a.x b.x then
      if Mont.equal fp a.y b.y then double c p else Infinity
    else begin
      let lambda =
        Mont.mul fp (Mont.sub fp b.y a.y) (Mont.inv fp (Mont.sub fp b.x a.x))
      in
      let x3 = Mont.sub fp (Mont.sub fp (Mont.sqr fp lambda) a.x) b.x in
      let y3 = Mont.sub fp (Mont.mul fp lambda (Mont.sub fp a.x x3)) a.y in
      Affine { x = x3; y = y3 }
    end

(* --- Jacobian internals for scalar multiplication --- *)

type jac = Jinf | Jac of { jx : Mont.elt; jy : Mont.elt; jz : Mont.elt }

let triple fp t = Mont.add fp (Mont.add fp t t) t

let jac_double c = function
  | Jinf -> Jinf
  | Jac { jx; jy; jz } ->
    let fp = c.fp in
    if Mont.is_zero fp jy then Jinf
    else begin
      let yy = Mont.sqr fp jy in
      let yyyy = Mont.sqr fp yy in
      let s =
        let t = Mont.mul fp jx yy in
        Mont.add fp (Mont.add fp t t) (Mont.add fp t t)
      in
      let zz = Mont.sqr fp jz in
      let m =
        match c.doubling with
        | A_minus3 -> triple fp (Mont.mul fp (Mont.sub fp jx zz) (Mont.add fp jx zz))
        | A_one -> Mont.add fp (triple fp (Mont.sqr fp jx)) (Mont.sqr fp zz)
        | A_general ->
          Mont.add fp (triple fp (Mont.sqr fp jx)) (Mont.mul fp c.a (Mont.sqr fp zz))
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
let jac_add_affine c p qx qy =
  let fp = c.fp in
  match p with
  | Jinf -> Jac { jx = qx; jy = qy; jz = Mont.one fp }
  | Jac { jx; jy; jz } ->
    let z1z1 = Mont.sqr fp jz in
    let u2 = Mont.mul fp qx z1z1 in
    let s2 = Mont.mul fp (Mont.mul fp qy jz) z1z1 in
    if Mont.equal fp jx u2 then
      if Mont.equal fp jy s2 then jac_double c p else Jinf
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
let jac_add c p q =
  let fp = c.fp in
  match (p, q) with
  | Jinf, r | r, Jinf -> r
  | Jac a, Jac b ->
    let z1z1 = Mont.sqr fp a.jz in
    let z2z2 = Mont.sqr fp b.jz in
    let u1 = Mont.mul fp a.jx z2z2 in
    let u2 = Mont.mul fp b.jx z1z1 in
    let s1 = Mont.mul fp (Mont.mul fp a.jy b.jz) z2z2 in
    let s2 = Mont.mul fp (Mont.mul fp b.jy a.jz) z1z1 in
    if Mont.equal fp u1 u2 then
      if Mont.equal fp s1 s2 then jac_double c p else Jinf
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
      Jac { jx = x3; jy = y3; jz = Mont.mul fp (Mont.mul fp a.jz b.jz) h }
    end

(* Jacobian to affine for a whole array with one shared inversion
   (Montgomery's trick); [Jinf] entries become [Infinity]. *)
let batch_to_affine c js =
  let fp = c.fp in
  let n = Array.length js in
  (* before.(i) is the product of the z coordinates of the entries before
     i, [None] while there are none *)
  let before = Array.make n None in
  let prod = ref None in
  for i = 0 to n - 1 do
    before.(i) <- !prod;
    match (js.(i), !prod) with
    | Jinf, _ -> ()
    | Jac { jz; _ }, None -> prod := Some jz
    | Jac { jz; _ }, Some p -> prod := Some (Mont.mul fp p jz)
  done;
  let out = Array.make n Infinity in
  Option.iter
    (fun prod ->
      (* inv is the inverse of the product of the remaining z coordinates *)
      let inv = ref (Mont.inv fp prod) in
      for i = n - 1 downto 0 do
        match js.(i) with
        | Jinf -> ()
        | Jac { jx; jy; jz } ->
          let zinv =
            match before.(i) with
            | None -> !inv
            | Some b ->
              let zinv = Mont.mul fp !inv b in
              inv := Mont.mul fp !inv jz;
              zinv
          in
          let zinv2 = Mont.sqr fp zinv in
          out.(i) <-
            Affine
              { x = Mont.mul fp jx zinv2; y = Mont.mul fp jy (Mont.mul fp zinv2 zinv) }
      done)
    !prod;
  out

(* Signed windows of width 5 (wNAF). *)
let wnaf_width = 5

(* The wNAF digits of k >= 0, least significant first: each digit is 0 or
   odd with |d| < 2^(w-1), and each nonzero digit is followed by at least
   w-1 zeros, so an n-bit scalar needs about n/(w+1) additions. *)
let wnaf k =
  let nbits = Bigint.num_bits k in
  let bit i = if i < nbits && Bigint.testbit k i then 1 else 0 in
  let digits = Array.make (nbits + 1) 0 in
  let rec go i carry =
    if i < nbits || carry > 0 then begin
      let b = bit i + carry in
      if b land 1 = 0 then go (i + 1) (b lsr 1)
      else begin
        let v = ref carry in
        for j = wnaf_width - 1 downto 0 do
          v := !v + (bit (i + j) lsl j)
        done;
        if !v >= 1 lsl (wnaf_width - 1) then begin
          digits.(i) <- !v - (1 lsl wnaf_width);
          go (i + wnaf_width) 1
        end
        else begin
          digits.(i) <- !v;
          go (i + wnaf_width) 0
        end
      end
    end
  in
  go 0 0;
  digits

(* P, 3P, 5P, …, (2n-1)P in Jacobian coordinates *)
let odd_multiples c px py n =
  let base = Jac { jx = px; jy = py; jz = Mont.one c.fp } in
  let table = Array.make n base in
  if n > 1 then begin
    let twice = jac_double c base in
    for j = 1 to n - 1 do
      table.(j) <- jac_add c table.(j - 1) twice
    done
  end;
  table

(* Σ k_i·P_i by Straus's method: one doubling chain shared by every term,
   and per term one mixed addition of a table entry for each nonzero wNAF
   digit. All tables are normalised to affine with a single inversion. *)
let lin_comb c terms =
  let fp = c.fp in
  List.iter
    (fun (k, _) ->
      if Bigint.sign k < 0 then invalid_arg "Curve.lin_comb: negative scalar")
    terms;
  let terms =
    List.filter_map
      (fun (k, p) ->
        match p with
        | Affine { x; y } when not (Bigint.is_zero k) ->
          let digits = wnaf k in
          let top = Array.fold_left (fun m d -> max m (abs d)) 0 digits in
          Some (digits, odd_multiples c x y ((top + 1) / 2))
        | Affine _ | Infinity -> None)
      terms
  in
  let affine = batch_to_affine c (Array.concat (List.map snd terms)) in
  let _, terms =
    List.fold_left_map
      (fun offset (digits, table) ->
        let n = Array.length table in
        (offset + n, (digits, Array.sub affine offset n)))
      0 terms
  in
  let len = List.fold_left (fun m (digits, _) -> max m (Array.length digits)) 0 terms in
  let acc = ref Jinf in
  for i = len - 1 downto 0 do
    acc := jac_double c !acc;
    List.iter
      (fun (digits, table) ->
        let d = if i < Array.length digits then digits.(i) else 0 in
        if d <> 0 then
          match table.(abs d / 2) with
          | Infinity -> ()
          | Affine { x; y } ->
            acc := jac_add_affine c !acc x (if d > 0 then y else Mont.neg fp y))
      terms
  done;
  (batch_to_affine c [| !acc |]).(0)

let c_scalar_mul = Peace_obs.Registry.counter "ec.scalar_mul"

let mul c k p =
  Peace_obs.Registry.Counter.incr c_scalar_mul;
  lin_comb c [ (Bigint.erem k c.n, p) ]

let mul2 c k1 p1 k2 p2 =
  Peace_obs.Registry.Counter.add c_scalar_mul 2;
  lin_comb c [ (Bigint.erem k1 c.n, p1); (Bigint.erem k2 c.n, p2) ]

let mul_base c k = mul c k c.base_point

let make ~name:curve_name ~p ~a ~b ~gx ~gy ~n =
  if not (Bigint.is_odd p) then invalid_arg "Curve.make: even field order";
  let fp = Mont.create p in
  let a_is v = Bigint.equal (Bigint.erem a p) (Bigint.erem (Bigint.of_int v) p) in
  let c =
    {
      curve_name;
      fp;
      a = Mont.of_bigint fp a;
      b = Mont.of_bigint fp b;
      doubling = (if a_is (-3) then A_minus3 else if a_is 1 then A_one else A_general);
      base_point = Infinity;
      n;
      p;
      size = (Bigint.num_bits p + 7) / 8;
    }
  in
  match affine c ~x:gx ~y:gy with
  | Some g -> { c with base_point = g }
  | None -> invalid_arg "Curve.make: base point not on curve"

let lift c x =
  if Bigint.sign x < 0 || Bigint.compare x c.p >= 0 then None
  else begin
    let fp = c.fp in
    let mx = Mont.of_bigint fp x in
    let rhs =
      Mont.add fp (Mont.add fp (Mont.mul fp (Mont.sqr fp mx) mx) (Mont.mul fp c.a mx)) c.b
    in
    Option.map
      (fun y -> Affine { x = mx; y = Mont.of_bigint fp y })
      (Modular.sqrt (Mont.to_bigint fp rhs) c.p)
  end

let decompress c x ~odd =
  match lift c x with
  | Some (Affine { x; y }) as pt ->
    let y_odd = Bigint.is_odd (Mont.to_bigint c.fp y) in
    if y_odd = odd then pt
    else if Mont.is_zero c.fp y then None
    else Some (Affine { x; y = Mont.neg c.fp y })
  | Some Infinity | None -> None

let encode c ?(compress = false) pt =
  match to_affine c pt with
  | None -> "\x00"
  | Some (x, y) ->
    let xs = Bigint.to_bytes_be ~width:c.size x in
    if compress then
      let prefix = if Bigint.is_even y then "\x02" else "\x03" in
      prefix ^ xs
    else "\x04" ^ xs ^ Bigint.to_bytes_be ~width:c.size y

let decode c s =
  let n = String.length s in
  let coord off = Bigint.of_bytes_be (String.sub s off c.size) in
  if n = 0 then None
  else
    match s.[0] with
    | '\x00' when n = 1 -> Some Infinity
    | '\x04' when n = 1 + (2 * c.size) ->
      let x = coord 1 and y = coord (1 + c.size) in
      if Bigint.compare x c.p >= 0 || Bigint.compare y c.p >= 0 then None
      else affine c ~x ~y
    | ('\x02' | '\x03') when n = 1 + c.size ->
      decompress c (coord 1) ~odd:(s.[0] = '\x03')
    | _ -> None

let pp_point c fmt pt =
  match to_affine c pt with
  | None -> Format.pp_print_string fmt "O"
  | Some (x, y) ->
    Format.fprintf fmt "(0x%s, 0x%s)" (Bigint.to_hex x) (Bigint.to_hex y)
