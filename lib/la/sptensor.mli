(** Sparse multilinear maps [R^n × ... × R^n → R^m].

    A value of arity [k] represents a matrix [M] of shape [m × n^k]
    acting on k-fold Kronecker products — the QLDAE quadratic coupling
    [G2] (arity 2) and cubic coupling [G3] (arity 3). Circuit-derived
    couplings are extremely sparse, so every contraction here is
    [O(nnz)] instead of [O(m n^k)].

    Every constructor ([create], [zero], [scale], [add], [of_dense],
    [symmetrize]) builds two stored forms once:

    - the {b COO form}: the [(row, indices, coeff)] triplets as given,
      one per stored position. [apply_flat], [apply_flat_complex],
      [apply_kron], [project], [to_dense] and [entries] use it, so
      contractions against distinct arguments see exactly the stored
      (e.g. symmetrized) coefficients;
    - the {b polynomial form}: one monomial per distinct sorted
      multi-index ([i ≤ j], or [i ≤ j ≤ l]) with its coefficients
      summed over all permutations, in flat CSR arrays (monomial
      variables, row pointer, output rows, coefficients). [apply_pow]
      and [jacobian_add] use only it. It is exact for any tensor,
      symmetric or not, because [x^⊗k] is symmetric; for the dense
      projected couplings of a ROM it stores [q(q+1)/2] (or
      [q(q+1)(q+2)/6]) monomials instead of [q²] ([q³]) triplets per
      row. *)

type t

(** [create ~n_out ~n_in ~arity entries] builds the map from
    [(row, indices, coeff)] triplets. Duplicate positions accumulate. *)
val create : n_out:int -> n_in:int -> arity:int -> (int * int array * float) list -> t

(** The all-zero map. *)
val zero : n_out:int -> n_in:int -> arity:int -> t

val n_out : t -> int
val n_in : t -> int
val arity : t -> int

(** Number of stored triplets (COO form). *)
val nnz : t -> int

(** Number of distinct monomials with a non-zero coefficient
    (polynomial form). *)
val monomials : t -> int

val is_zero : t -> bool

(** Stored triplets (copies). *)
val entries : t -> (int * int array * float) list

val scale : float -> t -> t
val add : t -> t -> t

(** [apply_flat t x] is [M x] for a flat coordinate vector [x] of length
    [n_in^arity]. *)
val apply_flat : t -> Vec.t -> Vec.t

val apply_flat_complex : t -> Cvec.t -> Cvec.t

(** [apply_kron t [|v1; ...; vk|]] is [M (v1 ⊗ ... ⊗ vk)] without
    forming the Kronecker product. *)
val apply_kron : t -> Vec.t array -> Vec.t

(** [apply_pow t x] is [M x^⊗k], evaluated over the polynomial form:
    each monomial once, then scattered into its rows. Charges
    [(k−1)·monomials + 2·terms] tensor flops. *)
val apply_pow : t -> Vec.t -> Vec.t

(** [jacobian_add t x jac] adds the Jacobian of [x ↦ M x^⊗k] at [x]
    into [jac], over the polynomial form. *)
val jacobian_add : t -> Vec.t -> Mat.t -> unit

(** Dense [m × n^k] matrix — small systems and tests only. *)
val to_dense : t -> Mat.t

val of_dense : arity:int -> n_in:int -> Mat.t -> t

(** [project t v] is the reduced coupling [Vᵀ M (V ⊗ ... ⊗ V)] (dense
    [q × q^k]) for a basis [V] with [q] columns. Requires
    [n_out = n_in]. *)
val project : t -> Mat.t -> Mat.t

(** Average coefficients over index permutations; [M x^⊗k] is
    unchanged, contractions against distinct arguments become the
    symmetrized ones appearing in Volterra transfer functions. *)
val symmetrize : t -> t
