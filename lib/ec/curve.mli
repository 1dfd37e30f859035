(** Short Weierstrass elliptic curves y² = x³ + ax + b over a prime field.

    The one group law of the tree: ECDSA (router certificates,
    non-repudiation receipts in PEACE) and the pairing group {!G1} of
    [peace.pairing] are both built on it.

    Points are affine in Montgomery form, so their coordinates feed the
    Miller loop without an inversion. {!add} and {!double} use one field
    inversion each. Scalar multiplication ({!lin_comb}) runs in Jacobian
    coordinates over signed width-5 windows (wNAF): each term's odd
    multiples P, 3P, …, 15P are normalised to affine with one shared
    inversion, and all terms share one doubling chain (Straus). The
    doubling's M = 3X² + a·Z⁴ is fixed in {!make} from [a]: a = −3 and
    a = 1 each cost no multiplication by [a]. *)

open Peace_bigint

type t
(** A curve with precomputed field context. *)

type point = Infinity | Affine of { x : Mont.elt; y : Mont.elt }
(** The point at infinity or an affine point, coordinates in the
    Montgomery form of {!field}. Points are only meaningful with the curve
    that created them. *)

val make :
  name:string ->
  p:Bigint.t ->
  a:Bigint.t ->
  b:Bigint.t ->
  gx:Bigint.t ->
  gy:Bigint.t ->
  n:Bigint.t ->
  t
(** Builds a curve from domain parameters: odd prime modulus [p],
    coefficients [a], [b], base point [(gx, gy)] of prime order [n].
    @raise Invalid_argument if [p] is even or the base point is not on
    the curve. *)

val name : t -> string

val field : t -> Mont.ctx
(** The Montgomery context of F_p. *)

val field_order : t -> Bigint.t
val order : t -> Bigint.t
(** Order [n] of the base-point subgroup. *)

val base : t -> point
val infinity : t -> point
val is_infinity : point -> bool

val point : t -> x:Bigint.t -> y:Bigint.t -> point
(** Constructs and validates an affine point.
    @raise Invalid_argument if [(x, y)] does not satisfy the curve
    equation. *)

val lift : t -> Bigint.t -> point option
(** [lift c x] is the point [(x, y)] where [y] is the square root of
    x³ + ax + b that {!Peace_bigint.Modular.sqrt} returns; [None] when
    [x] is outside [\[0, p)] or x³ + ax + b is not a square. *)

val decompress : t -> Bigint.t -> odd:bool -> point option
(** The point with x-coordinate [x] whose y has the given parity, from
    {!lift}. [None] when there is none (including [y = 0] with [odd]). *)

val to_affine : t -> point -> (Bigint.t * Bigint.t) option
(** [None] for the point at infinity. *)

val neg : t -> point -> point
val add : t -> point -> point -> point
val double : t -> point -> point

val lin_comb : t -> (Bigint.t * point) list -> point
(** [lin_comb c [(k1, P1); …]] is Σ kᵢ·Pᵢ, with scalars used as given
    (not reduced modulo [n]), so it also serves cofactor clearing and
    order checks. Not counted.
    @raise Invalid_argument on a negative scalar. *)

val mul : t -> Bigint.t -> point -> point
(** Scalar multiplication; the scalar is reduced modulo the group order.
    Counts one [ec.scalar_mul]. *)

val mul2 : t -> Bigint.t -> point -> Bigint.t -> point -> point
(** [mul2 c k1 p1 k2 p2] is [k1·p1 + k2·p2] on one doubling chain,
    scalars reduced modulo the group order. Equal to
    [add (mul k1 p1) (mul k2 p2)] and counted as two [ec.scalar_mul]. *)

val mul_base : t -> Bigint.t -> point
(** [mul_base c k] is [k·G]. *)

val equal : t -> point -> point -> bool
val on_curve : t -> point -> bool

val encode : t -> ?compress:bool -> point -> string
(** SEC 1 encoding: [0x00] for infinity, [0x04 ‖ x ‖ y] uncompressed
    (default), [0x02/0x03 ‖ x] compressed. *)

val decode : t -> string -> point option
(** Parses and validates a SEC 1 encoding. [None] on malformed input, a
    coordinate not below [p] (so every point has one encoding per form),
    or a point not on the curve. Never raises. *)

val byte_size : t -> int
(** Bytes needed for one field element. *)

val pp_point : t -> Format.formatter -> point -> unit
