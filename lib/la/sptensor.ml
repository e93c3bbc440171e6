(* Sparse multilinear maps R^n x ... x R^n -> R^m.

   A value of arity k represents a matrix M of shape m x n^k acting on
   k-fold Kronecker products, stored as (row, (i_1..i_k), coeff)
   triplets. The QLDAE quadratic term G2 (arity 2) and cubic term G3
   (arity 3) of real circuits are extremely sparse; this representation
   keeps every contraction O(nnz) instead of O(m n^k). Next to the
   triplets every constructor compiles a polynomial form (below), over
   which the ODE kernels [apply_pow]/[jacobian_add] run. *)

type entry = { row : int; idx : int array; coeff : float }

(* Polynomial form of M x^⊗k: one monomial per distinct sorted
   multi-index (i_1 <= ... <= i_k), its coefficients summed over every
   permutation, stored as flat CSR arrays. Monomial [m] has variables
   [vars.(m*k .. m*k+k-1)] and its terms [ptr.(m) .. ptr.(m+1)-1] add
   [coef.(e) * x_{i_1}...x_{i_k}] into output row [rows.(e)]. Monomials
   are ordered by the flat index of their sorted variables and rows
   ascend within one, so the form is canonical. x^⊗k is symmetric, so
   this is exact for any tensor, symmetrized or not. *)
type poly = {
  vars : int array;
  ptr : int array;
  rows : int array;
  coef : float array;
}

type t = {
  n_out : int;
  n_in : int;
  arity : int;
  entries : entry array;  (* COO triplets: apply_flat/apply_kron/project *)
  poly : poly;  (* apply_pow/jacobian_add *)
}

(* Appends terms in canonical (monomial, row) order into buffers sized
   for [max_terms]; [key] identifies the monomial, zero sums are
   dropped. *)
type builder = {
  b_vars : int array array;  (* per monomial, concatenated by [finish] *)
  b_ptr : int array;
  b_rows : int array;
  b_coef : float array;
  mutable n_mono : int;
  mutable n_terms : int;
  mutable last_key : int;
}

let builder ~max_terms =
  {
    b_vars = Array.make max_terms [||];
    b_ptr = Array.make (max_terms + 1) 0;
    b_rows = Array.make max_terms 0;
    b_coef = Array.make max_terms 0.0;
    n_mono = 0;
    n_terms = 0;
    last_key = -1;
  }

let push b ~key (vars : int array) row c =
  if Contract.nonzero c then begin
    if key <> b.last_key then begin
      b.b_vars.(b.n_mono) <- Array.copy vars;
      b.b_ptr.(b.n_mono) <- b.n_terms;
      b.n_mono <- b.n_mono + 1;
      b.last_key <- key
    end;
    b.b_rows.(b.n_terms) <- row;
    b.b_coef.(b.n_terms) <- c;
    b.n_terms <- b.n_terms + 1
  end

let finish b =
  b.b_ptr.(b.n_mono) <- b.n_terms;
  {
    vars = Array.concat (Array.to_list (Array.sub b.b_vars 0 b.n_mono));
    ptr = Array.sub b.b_ptr 0 (b.n_mono + 1);
    rows = Array.sub b.b_rows 0 b.n_terms;
    coef = Array.sub b.b_coef 0 b.n_terms;
  }

(* Sorts [idx] into [vars] (insertion sort: k is 2 or 3) and returns
   the flat index of the sorted multi-index. *)
let sorted_key ~n_in (idx : int array) (vars : int array) =
  let k = Array.length idx in
  for a = 0 to k - 1 do
    let v = idx.(a) in
    let j = ref (a - 1) in
    while !j >= 0 && vars.(!j) > v do
      vars.(!j + 1) <- vars.(!j);
      decr j
    done;
    vars.(!j + 1) <- v
  done;
  let f = ref 0 in
  for a = 0 to k - 1 do
    f := (!f * n_in) + vars.(a)
  done;
  !f

(* Polynomial form of COO entries: an int-keyed stable sort on
   (monomial, row), then one pass summing equal keys in entry order. *)
let poly_of_entries ~n_out ~n_in ~arity (entries : entry array) =
  let nnz = Array.length entries in
  let vars = Array.make arity 0 in
  let mono = Array.map (fun e -> sorted_key ~n_in e.idx vars) entries in
  let keys = Array.mapi (fun i e -> (mono.(i) * n_out) + e.row) entries in
  let order = Array.init nnz Fun.id in
  Array.stable_sort (fun a b -> Int.compare keys.(a) keys.(b)) order;
  let b = builder ~max_terms:nnz in
  let i = ref 0 in
  while !i < nnz do
    let e0 = order.(!i) in
    let k0 = keys.(e0) in
    let sum = ref 0.0 in
    while !i < nnz && keys.(order.(!i)) = k0 do
      sum := !sum +. entries.(order.(!i)).coeff;
      incr i
    done;
    ignore (sorted_key ~n_in entries.(e0).idx vars);
    push b ~key:mono.(e0) vars entries.(e0).row !sum
  done;
  finish b

let of_entries ~n_out ~n_in ~arity entries =
  { n_out; n_in; arity; entries; poly = poly_of_entries ~n_out ~n_in ~arity entries }

let create ~n_out ~n_in ~arity entries_list =
  let entries =
    Array.of_list
      (List.map
         (fun (row, idx, coeff) ->
           if row < 0 || row >= n_out then
             invalid_arg "Sptensor.create: row out of range";
           if Array.length idx <> arity then
             invalid_arg "Sptensor.create: index arity mismatch";
           Array.iter
             (fun i ->
               if i < 0 || i >= n_in then
                 invalid_arg "Sptensor.create: index out of range")
             idx;
           { row; idx = Array.copy idx; coeff })
         entries_list)
  in
  of_entries ~n_out ~n_in ~arity entries

let zero ~n_out ~n_in ~arity = create ~n_out ~n_in ~arity []

let n_out t = t.n_out

let n_in t = t.n_in

let arity t = t.arity

let nnz t = Array.length t.entries

let monomials t = Array.length t.poly.ptr - 1

let is_zero t = nnz t = 0

let entries t =
  Array.to_list (Array.map (fun e -> (e.row, Array.copy e.idx, e.coeff)) t.entries)

let scale alpha t =
  {
    t with
    entries = Array.map (fun e -> { e with coeff = alpha *. e.coeff }) t.entries;
    poly = { t.poly with coef = Array.map (fun c -> alpha *. c) t.poly.coef };
  }

let add a b =
  if a.n_out <> b.n_out || a.n_in <> b.n_in || a.arity <> b.arity then
    invalid_arg "Sptensor.add: shape mismatch";
  of_entries ~n_out:a.n_out ~n_in:a.n_in ~arity:a.arity
    (Array.append a.entries b.entries)

(* Flat multi-index of an entry: i_1 * n^{k-1} + ... + i_k. *)
let flat_index t (idx : int array) =
  let f = ref 0 in
  for m = 0 to t.arity - 1 do
    f := (!f * t.n_in) + idx.(m)
  done;
  !f

(* Length n^k of a flat coordinate vector. *)
let flat_len t =
  let s = ref 1 in
  for _ = 1 to t.arity do
    s := !s * t.n_in
  done;
  !s

(* y = M x for a flat coordinate vector x of length n^k. *)
let apply_flat t (x : Vec.t) : Vec.t =
  Contract.require_len "Sptensor.apply_flat" ~expected:(flat_len t)
    ~actual:(Array.length x);
  Obs.Cost.charge Obs.Cost.Flops_tensor
    (2 * Array.length t.entries)
    ~read:(2 * Array.length t.entries)
    ~written:(t.n_out + Array.length t.entries);
  let out = Vec.create t.n_out in
  Array.iter
    (fun e -> out.(e.row) <- out.(e.row) +. (e.coeff *. x.(flat_index t e.idx)))
    t.entries;
  out

let apply_flat_complex t (x : Cvec.t) : Cvec.t =
  Contract.require_len "Sptensor.apply_flat_complex" ~expected:(flat_len t)
    ~actual:(Cvec.dim x);
  Obs.Cost.charge Obs.Cost.Flops_tensor
    (4 * Array.length t.entries)
    ~read:(3 * Array.length t.entries)
    ~written:((2 * t.n_out) + (2 * Array.length t.entries));
  let out = Cvec.create t.n_out in
  Array.iter
    (fun e ->
      let f = flat_index t e.idx in
      out.Cvec.re.(e.row) <- out.Cvec.re.(e.row) +. (e.coeff *. x.Cvec.re.(f));
      out.Cvec.im.(e.row) <- out.Cvec.im.(e.row) +. (e.coeff *. x.Cvec.im.(f)))
    t.entries;
  out

(* y = M (v_1 ⊗ v_2 ⊗ ... ⊗ v_k) without forming the Kronecker
   product. *)
let apply_kron t (vs : Vec.t array) : Vec.t =
  if Array.length vs <> t.arity then invalid_arg "Sptensor.apply_kron: arity";
  Array.iter
    (fun v ->
      if Array.length v <> t.n_in then invalid_arg "Sptensor.apply_kron: dim")
    vs;
  Obs.Cost.charge Obs.Cost.Flops_tensor
    ((t.arity + 1) * Array.length t.entries)
    ~read:((t.arity + 1) * Array.length t.entries)
    ~written:(t.n_out + Array.length t.entries);
  let out = Vec.create t.n_out in
  Array.iter
    (fun e ->
      let p = ref e.coeff in
      for m = 0 to t.arity - 1 do
        p := !p *. vs.(m).(e.idx.(m))
      done;
      out.(e.row) <- out.(e.row) +. !p)
    t.entries;
  out

let monomial_value vars base k (x : Vec.t) =
  let v = ref 1.0 in
  for a = 0 to k - 1 do
    v := !v *. x.(vars.(base + a))
  done;
  !v

(* M x^⊗k over the polynomial form: each monomial is evaluated once
   and scattered into its rows. *)
let apply_pow t (x : Vec.t) : Vec.t =
  if Array.length x <> t.n_in then invalid_arg "Sptensor.apply_pow: dim";
  let { vars; ptr; rows; coef } = t.poly in
  let k = t.arity and n_mono = Array.length ptr - 1 and n_terms = Array.length coef in
  Obs.Cost.charge Obs.Cost.Flops_tensor
    (((k - 1) * n_mono) + (2 * n_terms))
    ~read:((k * n_mono) + (2 * n_terms))
    ~written:(t.n_out + n_terms);
  let out = Vec.create t.n_out in
  for m = 0 to n_mono - 1 do
    let base = m * k in
    let v =
      if k = 2 then x.(vars.(base)) *. x.(vars.(base + 1))
      else if k = 3 then x.(vars.(base)) *. x.(vars.(base + 1)) *. x.(vars.(base + 2))
      else monomial_value vars base k x
    in
    (* Unchecked: the constructors guarantee ptr is non-decreasing up
       to [n_terms] and every row is below [n_out]. *)
    for e = ptr.(m) to ptr.(m + 1) - 1 do
      let r = Array.unsafe_get rows e in
      Array.unsafe_set out r (Array.unsafe_get out r +. (Array.unsafe_get coef e *. v))
    done
  done;
  out

(* Add to [jac] the Jacobian of x -> M x^⊗k at point [x], over the
   polynomial form: d/dx_j of c x_{i_1}...x_{i_k} sums, over the
   positions a with i_a = j, c times the product of the other
   variables (so x_i^2 contributes 2 c x_i). *)
let jacobian_add t (x : Vec.t) (jac : Mat.t) =
  if Mat.rows jac <> t.n_out || Mat.cols jac <> t.n_in || Array.length x <> t.n_in
  then invalid_arg "Sptensor.jacobian_add: dim";
  let { vars; ptr; rows; coef } = t.poly in
  let k = t.arity and data = Mat.data jac and cols = t.n_in in
  for m = 0 to Array.length ptr - 2 do
    let base = m * k in
    for a = 0 to k - 1 do
      let d = ref 1.0 in
      for b = 0 to k - 1 do
        if b <> a then d := !d *. x.(vars.(base + b))
      done;
      let d = !d and col = vars.(base + a) in
      for e = ptr.(m) to ptr.(m + 1) - 1 do
        let i = (rows.(e) * cols) + col in
        data.(i) <- data.(i) +. (coef.(e) *. d)
      done
    done
  done

(* Dense m x n^k matrix (small systems / tests only). *)
let to_dense t : Mat.t =
  let cols =
    let s = ref 1 in
    for _ = 1 to t.arity do
      s := !s * t.n_in
    done;
    !s
  in
  let m = Mat.create t.n_out cols in
  Array.iter (fun e -> Mat.add_to m e.row (flat_index t e.idx) e.coeff) t.entries;
  m

let rec remove_first x = function
  | [] -> []
  | y :: tl -> if y = x then tl else y :: remove_first x tl

(* Permutations with multiplicity: a list of length k always yields k!
   results (duplicated indices give repeated permutations, which is
   exactly what distributes the coefficient correctly). *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (remove_first x l)))
      l

(* Both forms straight from the dense matrix: the COO entries are its
   nonzeros in row-major order, and each sorted multi-index sums its
   distinct permuted columns, so no sort is needed. *)
let of_dense ~arity ~n_in (m : Mat.t) : t =
  let expect =
    let s = ref 1 in
    for _ = 1 to arity do
      s := !s * n_in
    done;
    !s
  in
  if Mat.cols m <> expect then invalid_arg "Sptensor.of_dense: column count";
  let n_out = Mat.rows m and data = Mat.data m in
  let count = ref 0 in
  Array.iter (fun x -> if Contract.nonzero x then incr count) data;
  let entries = Array.make !count { row = 0; idx = [||]; coeff = 0.0 } in
  let next = ref 0 in
  Array.iteri
    (fun f x ->
      if Contract.nonzero x then begin
        let idx = Array.make arity 0 in
        let rest = ref (f mod expect) in
        for k = arity - 1 downto 0 do
          idx.(k) <- !rest mod n_in;
          rest := !rest / n_in
        done;
        entries.(!next) <- { row = f / expect; idx; coeff = x };
        incr next
      end)
    data;
  (* sorted multi-indices i_1 <= ... <= i_k in ascending flat order *)
  let n_mono =
    (* C(n_in + k - 1, k) *)
    let c = ref 1 in
    for a = 1 to arity do
      c := !c * (n_in + a - 1) / a
    done;
    !c
  in
  let b = builder ~max_terms:(n_mono * n_out) in
  let vars = Array.make arity 0 in
  let flat p = List.fold_left (fun f i -> (f * n_in) + i) 0 p in
  let rec walk depth lo =
    if depth = arity then begin
      let cols =
        Array.of_list
          (List.sort_uniq Int.compare (List.map flat (permutations (Array.to_list vars))))
      in
      let key = flat (Array.to_list vars) in
      for r = 0 to n_out - 1 do
        let s = ref 0.0 in
        for c = 0 to Array.length cols - 1 do
          s := !s +. data.((r * expect) + cols.(c))
        done;
        push b ~key vars r !s
      done
    end
    else
      for i = lo to n_in - 1 do
        vars.(depth) <- i;
        walk (depth + 1) i
      done
  in
  walk 0 0;
  { n_out; n_in; arity; entries; poly = finish b }

(* Project through a basis: V^T M (V ⊗ ... ⊗ V), where V is n x q with
   orthonormal columns. Result is dense q x q^k — the reduced-order
   coupling tensor. *)
let project t (v : Mat.t) : Mat.t =
  if Mat.rows v <> t.n_in then invalid_arg "Sptensor.project: dim";
  if t.n_out <> t.n_in then
    invalid_arg "Sptensor.project: square systems only";
  let q = Mat.cols v in
  let qk =
    let s = ref 1 in
    for _ = 1 to t.arity do
      s := !s * q
    done;
    !s
  in
  let out = Mat.create q qk in
  let cols = Array.init q (fun j -> Mat.col v j) in
  (* enumerate all q^k column tuples *)
  let tuple = Array.make t.arity 0 in
  let rec loop depth flat =
    if depth = t.arity then begin
      let w = apply_kron t (Array.map (fun j -> cols.(j)) tuple) in
      let reduced = Mat.mul_vec_transpose v w in
      for i = 0 to q - 1 do
        Mat.set out i flat reduced.(i)
      done
    end
    else
      for j = 0 to q - 1 do
        tuple.(depth) <- j;
        loop (depth + 1) ((flat * q) + j)
      done
  in
  loop 0 0;
  out

(* Symmetrize: average coefficients over all permutations of each
   entry's indices. M x^⊗k is unchanged; contractions against
   non-symmetric arguments become the symmetrized ones used in the
   Volterra transfer functions. *)
let symmetrize t =
  let fact = List.length (permutations (List.init t.arity Fun.id)) in
  let entries =
    Array.to_list t.entries
    |> List.concat_map (fun e ->
           let perms = permutations (Array.to_list e.idx) in
           List.map
             (fun p ->
               { row = e.row; idx = Array.of_list p; coeff = e.coeff /. float_of_int fact })
             perms)
  in
  (* x^⊗k is symmetric, so the polynomial form is unchanged *)
  { t with entries = Array.of_list entries }
