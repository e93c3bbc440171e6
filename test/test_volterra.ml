(* Tests for the Volterra engine: transfer functions, variational
   responses, and — the scientific core — the associated-transform
   realizations and their moments.

   Validation chain:
   1. [Assoc.h2_eval]/[h3_eval] against *dense* realizations of the
      paper's eq. 17 block system (built with materialized Kronecker
      sums and complex LU) — exact, tight tolerance.
   2. Moment series against finite-difference Taylor coefficients of the
      evaluators.
   3. The defining property of the association of variables: the inverse
      Laplace transform of Hn(s) is the *diagonal* kernel hn(t,..,t), so
      the n-th variational response to a narrow unit-area pulse must
      converge to the impulse response of the associated realization. *)

open La

let rng = Random.State.make [| 2024 |]

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

let random_stable n =
  let a = Mat.random ~rng n n in
  Mat.sub (Mat.scale 0.4 a) (Mat.scale 1.5 (Mat.identity n))

(* A small random QLDAE with all couplings present (SISO). *)
let random_qldae ?(n = 4) ?(with_d1 = true) ?(with_g3 = false) () =
  let g1 = random_stable n in
  let g2 =
    Sptensor.of_dense ~arity:2 ~n_in:n (Mat.scale 0.3 (Mat.random ~rng n (n * n)))
  in
  let g3 =
    if with_g3 then
      Sptensor.of_dense ~arity:3 ~n_in:n
        (Mat.scale 0.1 (Mat.random ~rng n (n * n * n)))
    else Sptensor.zero ~n_out:n ~n_in:n ~arity:3
  in
  let d1 =
    if with_d1 then [| Mat.scale 0.3 (Mat.random ~rng n n) |]
    else [| Mat.create n n |]
  in
  let b = Mat.init n 1 (fun i _ -> if i = 0 then 1.0 else 0.2) in
  let c = Mat.init 1 n (fun _ j -> if j = n - 1 then 1.0 else 0.0) in
  Volterra.Qldae.make ~g2 ~g3 ~d1 ~g1 ~b ~c ()

let cx re im = { Complex.re; im }

(* ---- variational responses ---- *)

let test_variational_linear () =
  (* With G2 = G3 = D1 = 0: x1 is the full response; x2 = x3 = 0. *)
  let n = 3 in
  let g1 = random_stable n in
  let b = Mat.init n 1 (fun i _ -> float_of_int (i + 1)) in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  let q = Volterra.Qldae.make ~g1 ~b ~c () in
  let input t = Vec.of_list [ sin t ] in
  let r = Volterra.Variational.responses q ~input ~t0:0.0 ~t1:5.0 ~samples:6 in
  let sol = Volterra.Qldae.simulate q ~input ~t0:0.0 ~t1:5.0 ~samples:6 in
  Array.iteri
    (fun i x ->
      check_small "x1 = full response (linear)" (Vec.dist2 x r.Volterra.Variational.x1.(i)) 1e-6;
      check_small "x2 = 0" (Vec.norm2 r.Volterra.Variational.x2.(i)) 1e-9;
      check_small "x3 = 0" (Vec.norm2 r.Volterra.Variational.x3.(i)) 1e-9)
    sol.Ode.Types.states

let test_variational_convergence () =
  (* ||x(eps u) - (eps x1 + eps^2 x2 + eps^3 x3)|| = O(eps^4): shrinking
     eps by 2 must shrink the defect by ~16. *)
  let q = random_qldae ~with_g3:true () in
  let input t = Vec.of_list [ Float.exp (-0.3 *. t) *. sin (2.0 *. t) ] in
  let r = Volterra.Variational.responses q ~input ~t0:0.0 ~t1:4.0 ~samples:5 in
  let defect eps =
    let sol =
      Volterra.Qldae.simulate q
        ~solver:(Volterra.Qldae.Rkf45 { rtol = 1e-11; atol = 1e-13 })
        ~input:(fun t -> Vec.scale eps (input t))
        ~t0:0.0 ~t1:4.0 ~samples:5
    in
    let err = ref 0.0 in
    Array.iteri
      (fun i x ->
        err :=
          Float.max !err
            (Vec.dist2 x (Volterra.Variational.volterra_sum r ~eps i)))
      sol.Ode.Types.states;
    !err
  in
  let e1 = defect 0.2 and e2 = defect 0.1 in
  let order = Float.log (e1 /. e2) /. Float.log 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "defect order %.2f >= 3.5 (quartic)" order)
    true (order >= 3.5)

(* ---- multivariate transfer functions ---- *)

let test_h1_resolvent () =
  let q = random_qldae () in
  let tr = Volterra.Transfer.create q in
  let s = cx 0.5 1.2 in
  let h = Volterra.Transfer.h1 tr ~input:0 s in
  (* residual (sI - G1) h - b *)
  let g1h =
    Cvec.make
      ~re:(Mat.mul_vec q.Volterra.Qldae.g1 (Cvec.real_part h))
      ~im:(Mat.mul_vec q.Volterra.Qldae.g1 (Cvec.imag_part h))
  in
  let r =
    Cvec.sub (Cvec.sub (Cvec.scale s h) g1h)
      (Cvec.of_real (Volterra.Qldae.b_col q 0))
  in
  check_small "H1 resolvent residual" (Cvec.norm2 r) 1e-10

let test_h2_symmetry () =
  let q = random_qldae () in
  let tr = Volterra.Transfer.create q in
  let s1 = cx 0.3 0.9 and s2 = cx (-0.2) 1.7 in
  let a = Volterra.Transfer.h2 tr ~inputs:(0, 0) s1 s2 in
  let b = Volterra.Transfer.h2 tr ~inputs:(0, 0) s2 s1 in
  check_small "H2(s1,s2) = H2(s2,s1)" (Cvec.dist a b) 1e-10

let test_h3_symmetry () =
  let q = random_qldae ~with_g3:true () in
  let tr = Volterra.Transfer.create q in
  let s1 = cx 0.3 0.9 and s2 = cx (-0.2) 1.7 and s3 = cx 0.1 (-0.4) in
  let a = Volterra.Transfer.h3 tr ~inputs:(0, 0, 0) s1 s2 s3 in
  let b = Volterra.Transfer.h3 tr ~inputs:(0, 0, 0) s3 s1 s2 in
  check_small "H3 invariant under argument permutation" (Cvec.dist a b) 1e-9

let test_h2_matches_variational_single_tone () =
  (* For u = 2 cos(w t) = e^{jwt} + e^{-jwt}, the steady second-order
     response contains the DC term 2 H2(jw, -jw) (plus 2w-harmonics).
     Check the DC component of x2 against the transfer function. *)
  let q = random_qldae ~with_d1:false () in
  let w = 1.3 in
  let input t = Vec.of_list [ 2.0 *. cos (w *. t) ] in
  let r =
    Volterra.Variational.responses q ~input ~t0:0.0 ~t1:80.0 ~samples:801
  in
  (* average the tail of x2 to isolate DC *)
  let n = Volterra.Qldae.dim q in
  let dc = Vec.create n in
  let count = ref 0 in
  Array.iteri
    (fun i t ->
      if t > 40.0 then begin
        incr count;
        Vec.axpy ~alpha:1.0 r.Volterra.Variational.x2.(i) dc
      end)
    r.Volterra.Variational.times;
  Vec.scale_inplace (1.0 /. float_of_int !count) dc;
  let tr = Volterra.Transfer.create q in
  let h2 = Volterra.Transfer.h2 tr ~inputs:(0, 0) (cx 0.0 w) (cx 0.0 (-.w)) in
  check_small "imag part of H2(jw,-jw)" (Vec.norm2 (Cvec.imag_part h2)) 1e-9;
  let expected = Vec.scale 2.0 (Cvec.real_part h2) in
  check_small "DC rectification = 2 H2(jw,-jw)"
    (Vec.rel_err ~exact:expected ~approx:dc)
    2e-2

(* ---- dense reference realizations (paper eq. 17 and the third-order
   block system) ---- *)

(* top n rows of (sI - A~2)^-1 b~2, materialized. *)
let dense_h2_assoc (q : Volterra.Qldae.t) (s : Complex.t) : Cvec.t =
  let n = Volterra.Qldae.dim q in
  let g2d = Sptensor.to_dense q.Volterra.Qldae.g2 in
  let ksum2 = Kron.sum_pow q.Volterra.Qldae.g1 2 in
  let a2 =
    Mat.vcat
      (Mat.hcat q.Volterra.Qldae.g1 g2d)
      (Mat.hcat (Mat.create (n * n) n) ksum2)
  in
  let b = Volterra.Qldae.b_col q 0 in
  let d1b = Mat.mul_vec q.Volterra.Qldae.d1.(0) b in
  let b2 = Vec.concat [ d1b; Kron.vec b b ] in
  let x = Clu.solve_shifted a2 s (Cvec.of_real b2) in
  Cvec.make
    ~re:(Vec.slice (Cvec.real_part x) ~pos:0 ~len:n)
    ~im:(Vec.slice (Cvec.imag_part x) ~pos:0 ~len:n)

let test_h2_eval_vs_dense_eq17 () =
  let q = random_qldae ~n:4 () in
  let eng = Volterra.Assoc.create ~s0:0.5 q in
  List.iter
    (fun s ->
      let fast = Volterra.Assoc.h2_eval eng ~inputs:(0, 0) s in
      let dense = dense_h2_assoc q s in
      check_small
        (Printf.sprintf "H2assoc(%.2f%+.2fi) structured = dense eq.17" s.Complex.re
           s.Complex.im)
        (Cvec.dist fast dense /. (1.0 +. Cvec.norm2 dense))
        1e-8)
    [ cx 0.4 0.0; cx 0.0 1.0; cx 0.8 (-2.0); cx 2.0 3.0 ]

(* Dense third-order associated transfer function of the input triple
   (a, b, c), assembled pairing by pairing from the paper's block
   realization with materialized Kronecker sums and dense solves:

     H3 = (sI-G1)^-1 [ (2/3) Σ_p G2 W^p + (1/3) Σ_p D1_i H2^{jl}
                       + G3 N3^-1 sym(b_a ⊗ b_b ⊗ b_c) ]
     W^p = N2^-1 (b_i ⊗ d_jl + (I ⊗ G2) N3^-1 (b_i ⊗ sym(b_j ⊗ b_l)))

   over the pairings p = (i; jl) in (a; bc), (b; ac), (c; ab). *)
let dense_h3_assoc ?(inputs = (0, 0, 0)) (q : Volterra.Qldae.t) (s : Complex.t)
    : Cvec.t =
  let a, b, c = inputs in
  let n = Volterra.Qldae.dim q in
  let g1 = q.Volterra.Qldae.g1 in
  let g2d = Sptensor.to_dense q.Volterra.Qldae.g2 in
  let g3d = Sptensor.to_dense q.Volterra.Qldae.g3 in
  let col = Volterra.Qldae.b_col q in
  let d1 = q.Volterra.Qldae.d1 in
  let n2 = Kron.sum_pow g1 2 and n3 = Kron.sum_pow g1 3 in
  let solve m (v : Cvec.t) =
    Clu.solve_system
      (Cmat.add_diag (Cmat.scale (cx (-1.0) 0.0) (Cmat.of_real m)) s)
      v
  in
  let apply_real_mat m (v : Cvec.t) =
    Cvec.make ~re:(Mat.mul_vec m (Cvec.real_part v))
      ~im:(Mat.mul_vec m (Cvec.imag_part v))
  in
  let w_pair j l =
    Vec.scale 0.5 (Vec.add (Kron.vec (col j) (col l)) (Kron.vec (col l) (col j)))
  in
  let d_pair j l =
    Vec.scale 0.5
      (Vec.add (Mat.mul_vec d1.(j) (col l)) (Mat.mul_vec d1.(l) (col j)))
  in
  let ikg2 = Kron.mat (Mat.identity n) g2d in
  let inner = Cvec.create n in
  List.iter
    (fun (i, (j, l)) ->
      let z = solve n3 (Cvec.of_real (Kron.vec (col i) (w_pair j l))) in
      let w =
        solve n2
          (Cvec.add (Cvec.of_real (Kron.vec (col i) (d_pair j l))) (apply_real_mat ikg2 z))
      in
      Cvec.axpy ~alpha:(cx (2.0 /. 3.0) 0.0) (apply_real_mat g2d w) inner;
      let h2 =
        solve g1
          (Cvec.add
             (apply_real_mat g2d (solve n2 (Cvec.of_real (w_pair j l))))
             (Cvec.of_real (d_pair j l)))
      in
      Cvec.axpy ~alpha:(cx (1.0 /. 3.0) 0.0) (apply_real_mat d1.(i) h2) inner)
    [ (a, (b, c)); (b, (a, c)); (c, (a, b)) ];
  let q3 = Vec.create (n * n * n) in
  List.iter
    (fun (i, j, l) ->
      Vec.axpy ~alpha:(1.0 /. 6.0) (Kron.vec (Kron.vec (col i) (col j)) (col l)) q3)
    [ (a, b, c); (a, c, b); (b, a, c); (b, c, a); (c, a, b); (c, b, a) ];
  Cvec.axpy ~alpha:Complex.one (apply_real_mat g3d (solve n3 (Cvec.of_real q3))) inner;
  solve g1 inner

(* A random [m]-input QLDAE; G2, G3 and per-input D1 present unless
   switched off. *)
let random_miso_qldae ?(n = 3) ?(m = 3) ?(with_d1 = true) ?(with_g2 = true)
    ?(with_g3 = true) () =
  let g1 = random_stable n in
  let g2 =
    if with_g2 then
      Sptensor.of_dense ~arity:2 ~n_in:n (Mat.scale 0.3 (Mat.random ~rng n (n * n)))
    else Sptensor.zero ~n_out:n ~n_in:n ~arity:2
  in
  let g3 =
    if with_g3 then
      Sptensor.of_dense ~arity:3 ~n_in:n
        (Mat.scale 0.1 (Mat.random ~rng n (n * n * n)))
    else Sptensor.zero ~n_out:n ~n_in:n ~arity:3
  in
  let d1 =
    Array.init m (fun _ ->
        if with_d1 then Mat.scale 0.3 (Mat.random ~rng n n) else Mat.create n n)
  in
  let b = Mat.random ~rng n m in
  let c = Mat.init 1 n (fun _ j -> if j = n - 1 then 1.0 else 0.0) in
  Volterra.Qldae.make ~g2 ~g3 ~d1 ~g1 ~b ~c ()

let test_h3_eval_vs_dense () =
  let check q inputs =
    let eng = Volterra.Assoc.create ~s0:0.5 q in
    let a, b, c = inputs in
    List.iter
      (fun s ->
        let fast = Volterra.Assoc.h3_eval eng ~inputs s in
        let dense = dense_h3_assoc ~inputs q s in
        check_small
          (Printf.sprintf "H3assoc^(%d,%d,%d)(%.2f%+.2fi) structured = dense" a b
             c s.Complex.re s.Complex.im)
          (Cvec.dist fast dense /. (1.0 +. Cvec.norm2 dense))
          1e-7)
      [ cx 0.6 0.0; cx 0.1 1.5; cx 1.0 (-1.0) ]
  in
  check (random_qldae ~n:3 ~with_g3:true ()) (0, 0, 0);
  (* distinct inputs exercise the pairing algebra: every pairing
     differs at (0,1,2), two of three coincide at (0,0,1) *)
  let miso = random_miso_qldae ~n:3 ~m:3 () in
  List.iter (check miso) [ (0, 1, 2); (0, 0, 1); (1, 2, 2) ]

(* ---- moments vs finite-difference Taylor coefficients ---- *)

let fd_taylor_coeff eval s0 m =
  (* m-th Taylor coefficient of a vector function about s0 via
     high-order central differences on a small stencil (complex step is
     unavailable since the argument is already complex). *)
  let h = 0.02 in
  (* five-point stencils for derivatives 0..3 *)
  let stencil =
    match m with
    | 0 -> [ (0.0, 1.0) ]
    | 1 -> [ (-2.0, 1.0 /. 12.0); (-1.0, -8.0 /. 12.0); (1.0, 8.0 /. 12.0); (2.0, -1.0 /. 12.0) ]
    | 2 ->
      [ (-2.0, -1.0 /. 12.0); (-1.0, 16.0 /. 12.0); (0.0, -30.0 /. 12.0);
        (1.0, 16.0 /. 12.0); (2.0, -1.0 /. 12.0) ]
    | 3 ->
      [ (-2.0, -0.5); (-1.0, 1.0); (1.0, -1.0); (2.0, 0.5) ]
    | _ -> invalid_arg "fd_taylor_coeff: m too large"
  in
  let acc = ref None in
  List.iter
    (fun (offset, weight) ->
      let v = eval (cx (s0 +. (offset *. h)) 0.0) in
      let scaled = Cvec.scale (cx (weight /. (h ** float_of_int m)) 0.0) v in
      acc :=
        Some (match !acc with None -> scaled | Some a -> Cvec.add a scaled))
    stencil;
  let fact = [| 1.0; 1.0; 2.0; 6.0 |].(m) in
  Cvec.scale (cx (1.0 /. fact) 0.0) (Option.get !acc)

let test_h2_moments_vs_fd () =
  let q = random_qldae ~n:4 () in
  let s0 = 0.6 in
  let eng = Volterra.Assoc.create ~s0 q in
  let moments = Array.of_list (Volterra.Assoc.h2_moments eng ~k:3) in
  for m = 0 to 2 do
    let taylor =
      fd_taylor_coeff (fun s -> Volterra.Assoc.h2_eval eng ~inputs:(0, 0) s) s0 m
    in
    (* moments are coefficients of (-δ)^m = (-1)^m * Taylor *)
    let expected =
      Vec.scale (if m mod 2 = 0 then 1.0 else -1.0) (Cvec.real_part taylor)
    in
    check_small
      (Printf.sprintf "H2 moment %d = Taylor coefficient" m)
      (Vec.rel_err ~exact:expected ~approx:moments.(m))
      1e-5
  done

let test_h3_moments_vs_fd () =
  let q = random_qldae ~n:3 ~with_g3:true () in
  let s0 = 0.7 in
  let eng = Volterra.Assoc.create ~s0 q in
  let moments = Array.of_list (Volterra.Assoc.h3_moments eng ~k:3) in
  for m = 0 to 2 do
    let taylor =
      fd_taylor_coeff
        (fun s -> Volterra.Assoc.h3_eval eng ~inputs:(0, 0, 0) s)
        s0 m
    in
    let expected =
      Vec.scale (if m mod 2 = 0 then 1.0 else -1.0) (Cvec.real_part taylor)
    in
    check_small
      (Printf.sprintf "H3 moment %d = Taylor coefficient" m)
      (Vec.rel_err ~exact:expected ~approx:moments.(m))
      1e-4
  done

let test_h1_moments_chain () =
  let q = random_qldae () in
  let s0 = 0.5 in
  let eng = Volterra.Assoc.create ~s0 q in
  let moments = Array.of_list (Volterra.Assoc.h1_moments eng ~k:3) in
  let n = Volterra.Qldae.dim q in
  let m = Mat.sub (Mat.scale s0 (Mat.identity n)) q.Volterra.Qldae.g1 in
  let lu = Lu.factor m in
  let v = ref (Volterra.Qldae.b_col q 0) in
  for j = 0 to 2 do
    v := Lu.solve lu !v;
    check_small
      (Printf.sprintf "H1 moment %d" j)
      (Vec.dist2 !v moments.(j))
      1e-10
  done

(* ---- the defining property: inverse Laplace of Hn(s) is the diagonal
   kernel, so narrow-pulse variational responses converge to the
   impulse response of the associated realization ---- *)

let test_association_diagonal_kernel_h2 () =
  let q = random_qldae ~n:4 () in
  let n = Volterra.Qldae.dim q in
  (* narrow unit-area smooth pulse *)
  let w = 0.02 in
  let input t =
    Vec.of_list
      [
        (if t < w then 2.0 /. w *. (sin (Float.pi *. t /. w) ** 2.0) else 0.0);
      ]
  in
  let r =
    Volterra.Variational.responses ~rtol:1e-10 ~atol:1e-13 q ~input ~t0:0.0
      ~t1:3.0 ~samples:7
  in
  (* impulse response of the eq.17 realization via expm *)
  let g2d = Sptensor.to_dense q.Volterra.Qldae.g2 in
  let ksum2 = Kron.sum_pow q.Volterra.Qldae.g1 2 in
  let a2 =
    Mat.vcat
      (Mat.hcat q.Volterra.Qldae.g1 g2d)
      (Mat.hcat (Mat.create (n * n) n) ksum2)
  in
  let b = Volterra.Qldae.b_col q 0 in
  (* The D1 feed-through carries a delta on the kernel diagonal
     (Theorem 2's sieving). A *narrow-pulse* excitation realizes the
     product of that delta with the jump of x1 and therefore picks up
     exactly half of it (lim ∫ u·U du = 1/2 for a unit-area pulse) —
     so the physical-limit realization uses D1 b / 2. The convention
     factor is shared by full and reduced models and cancels in the MOR
     pipeline. *)
  let b2 =
    Vec.concat
      [ Vec.scale 0.5 (Mat.mul_vec q.Volterra.Qldae.d1.(0) b); Kron.vec b b ]
  in
  Array.iteri
    (fun i t ->
      if t > 3.0 *. w then begin
        let full = Mat.mul_vec (Expm.expm (Mat.scale t a2)) b2 in
        let h2t = Vec.slice full ~pos:0 ~len:n in
        check_small
          (Printf.sprintf "x2 pulse response = L^-1(A2(H2)) at t=%.2f" t)
          (Vec.rel_err ~exact:h2t ~approx:r.Volterra.Variational.x2.(i))
          0.05
      end)
    r.Volterra.Variational.times

let test_association_diagonal_kernel_h3_cubic () =
  (* Pure cubic system (G2 = 0, D1 = 0): H3assoc realization is the
     paper's corollary chain (sI-G1)^-1 G3 (sI-⊕³G1)^-1 b^⊗3 — its
     impulse response must match the narrow-pulse x3. *)
  let n = 3 in
  let g1 = random_stable n in
  let g3 =
    Sptensor.of_dense ~arity:3 ~n_in:n
      (Mat.scale 0.2 (Mat.random ~rng n (n * n * n)))
  in
  let b = Mat.init n 1 (fun i _ -> 1.0 /. float_of_int (i + 1)) in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  let q = Volterra.Qldae.make ~g3 ~g1 ~b ~c () in
  let w = 0.02 in
  let input t =
    Vec.of_list
      [
        (if t < w then 2.0 /. w *. (sin (Float.pi *. t /. w) ** 2.0) else 0.0);
      ]
  in
  let r =
    Volterra.Variational.responses ~rtol:1e-10 ~atol:1e-13 q ~input ~t0:0.0
      ~t1:3.0 ~samples:7
  in
  (* block realization: xi' = G1 xi + G3d rho, rho' = ⊕³G1 rho *)
  let g3d = Sptensor.to_dense q.Volterra.Qldae.g3 in
  let n3 = n * n * n in
  let big =
    Mat.vcat (Mat.hcat g1 g3d)
      (Mat.hcat (Mat.create n3 n) (Kron.sum_pow g1 3))
  in
  let bvec = Volterra.Qldae.b_col q 0 in
  let x0 = Vec.concat [ Vec.create n; Kron.vec_pow bvec 3 ] in
  Array.iteri
    (fun i t ->
      if t > 3.0 *. w then begin
        let full = Mat.mul_vec (Expm.expm (Mat.scale t big)) x0 in
        let h3t = Vec.slice full ~pos:0 ~len:n in
        check_small
          (Printf.sprintf "x3 pulse response = L^-1(A3(H3)) at t=%.2f" t)
          (Vec.rel_err ~exact:h3t ~approx:r.Volterra.Variational.x3.(i))
          0.05
      end)
    r.Volterra.Variational.times

(* ---- summed single-chain H3 moments vs the three-pairing reference ---- *)

(* [Assoc.h3_moments] against the pre-collapse path kept in [Assoc_ref],
   per moment vector, normwise relative, across coupling mixes, input
   counts and both expansion-point regimes. VMOR_CHECKS is armed so the
   packed coupling's mode-symmetry contract runs on every iterate. *)
let test_h3_moments_vs_reference () =
  let cases =
    [
      ("SISO G2", random_miso_qldae ~n:4 ~m:1 ~with_d1:false ~with_g3:false ());
      ("SISO G2+D1", random_miso_qldae ~n:4 ~m:1 ~with_g3:false ());
      ("SISO G3 only", random_miso_qldae ~n:4 ~m:1 ~with_d1:false ~with_g2:false ());
      ("SISO G2+G3", random_miso_qldae ~n:4 ~m:1 ~with_d1:false ());
      ("2-input all", random_miso_qldae ~n:4 ~m:2 ());
      ("3-input all", random_miso_qldae ~n:3 ~m:3 ());
    ]
  in
  Contract.set_checks (Some true);
  Fun.protect ~finally:(fun () -> Contract.set_checks None) @@ fun () ->
  List.iter
    (fun (name, q) ->
      List.iter
        (fun s0 ->
          let eng = Volterra.Assoc.create ~s0 q in
          let fast = Volterra.Assoc.h3_moments eng ~k:3 in
          let reference = Assoc_ref.h3_moments ~s0 q ~k:3 in
          Alcotest.(check int)
            (Printf.sprintf "%s s0=%g: moment count" name s0)
            (List.length reference) (List.length fast);
          List.iteri
            (fun i (f, r) ->
              check_small
                (Printf.sprintf "%s s0=%g: moment vector %d" name s0 i)
                (Vec.dist2 f r /. Vec.norm2 r)
                1e-12)
            (List.combine fast reference))
        [ 0.0; 0.5 ])
    cases

(* ---- expansion-point selection ---- *)

let qldae_of_g1 g1 =
  let n = Mat.rows g1 in
  Volterra.Qldae.make ~g1
    ~b:(Mat.init n 1 (fun i _ -> if i = 0 then 1.0 else 0.0))
    ~c:(Mat.init 1 n (fun _ j -> if j = n - 1 then 1.0 else 0.0))
    ()

let test_default_s0 () =
  let check_s0 name expected q =
    Alcotest.(check (float 0.0)) name expected (Volterra.Assoc.default_s0 q)
  in
  (* the pivot product 0.01^200 underflows to 0; the pivots' geometric
     mean is 0.01, comfortably invertible *)
  check_s0 "G1 = 0.01 I, n = 200: s0 = 0" 0.0
    (qldae_of_g1 (Mat.scale 0.01 (Mat.identity 200)));
  check_s0 "zero column: s0 = 1" 1.0
    (qldae_of_g1 (Mat.init 4 4 (fun i j -> if j = 3 then 0.0 else float_of_int (i + j + 1))));
  check_s0 "borderline pivot: s0 = 1" 1.0
    (qldae_of_g1 (Mat.init 4 4 (fun i j -> if i <> j then 0.0 else if i = 3 then 1e-40 else -1.0)));
  (* the choice is unchanged on the paper figures' models and on every
     model family of the benchmark, across its sizes and coefficients *)
  let module M = Circuit.Models in
  let recentred q =
    let u0 = Vec.of_list [ 22.0 ] in
    let x0 = Volterra.Qldae.dc_operating_point q ~u0 in
    Volterra.Qldae.shift_equilibrium q ~x0 ~u0
  in
  check_s0 "fig2 NLTL-V" 1.0 (M.qldae (M.nltl_voltage ~stages:50 ()));
  check_s0 "fig3 NLTL-I" 1.0 (M.qldae (M.nltl_current ~stages:35 ()));
  check_s0 "fig4 RF receiver" 0.0
    (M.qldae (M.rf_receiver ~lna_stages:86 ~pa_stages:87 ()));
  check_s0 "fig5 varistor" 0.0 (recentred (M.qldae (M.varistor ~sections:97 ())));
  List.iter
    (fun n ->
      List.iter
        (fun coeff ->
          let tag fam = Printf.sprintf "%s n=%d coeff=%g" fam n coeff in
          check_s0 (tag "nltl_v") 1.0
            (M.qldae
               (M.nltl ~stages:(n / 2) ~alpha:(40.0 *. coeff)
                  ~source:(`Voltage 1.0) ~ground_diode:true ()));
          check_s0 (tag "nltl_i") 1.0
            (M.qldae
               (M.nltl ~stages:(n / 2) ~alpha:(40.0 *. coeff) ~source:`Current
                  ~ground_diode:false ~linear_front:1 ()));
          check_s0 (tag "rf") 0.0
            (M.qldae
               (M.rf_receiver ~lna_stages:(n / 2) ~pa_stages:(n - (n / 2))
                  ~g2_lna:(0.5 *. coeff) ~g2_pa:(1.0 *. coeff) ()));
          check_s0 (tag "varistor") 0.0
            (recentred (M.qldae (M.varistor ~sections:(n - 5) ~g3_var:(2.4 *. coeff) ()))))
        [ 0.95; 1.0; 1.05 ])
    [ 34; 40; 42; 45; 50; 58 ]

(* ---- MISO enumeration ---- *)

let test_miso_moments_counts () =
  let n = 4 in
  let g1 = random_stable n in
  let g2 =
    Sptensor.of_dense ~arity:2 ~n_in:n (Mat.scale 0.2 (Mat.random ~rng n (n * n)))
  in
  let b = Mat.random ~rng n 2 in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  let q = Volterra.Qldae.make ~g2 ~g1 ~b ~c () in
  let eng = Volterra.Assoc.create ~s0:0.5 q in
  Alcotest.(check int) "h1: k per input" 6
    (List.length (Volterra.Assoc.h1_moments eng ~k:3));
  Alcotest.(check int) "h2: k per unordered pair (3 pairs)" 9
    (List.length (Volterra.Assoc.h2_moments eng ~k:3));
  Alcotest.(check int) "h3 all triples (4)" 8
    (List.length (Volterra.Assoc.h3_moments eng ~k:2));
  Alcotest.(check int) "h3 diagonal triples (2)" 4
    (List.length (Volterra.Assoc.h3_moments ~triples_mode:`Diagonal eng ~k:2))

let test_miso_h2_eval_vs_dense () =
  (* mixed input pair: structured vs dense realization with
     w = sym(b0 ⊗ b1) *)
  let n = 3 in
  let g1 = random_stable n in
  let g2 =
    Sptensor.of_dense ~arity:2 ~n_in:n (Mat.scale 0.3 (Mat.random ~rng n (n * n)))
  in
  let b = Mat.random ~rng n 2 in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  let q = Volterra.Qldae.make ~g2 ~g1 ~b ~c () in
  let eng = Volterra.Assoc.create ~s0:0.5 q in
  let s = cx 0.3 0.8 in
  let fast = Volterra.Assoc.h2_eval eng ~inputs:(0, 1) s in
  (* dense: (sI-G1)^-1 G2 (sI-⊕²G1)^-1 sym(b0⊗b1) *)
  let b0 = Volterra.Qldae.b_col q 0 and b1 = Volterra.Qldae.b_col q 1 in
  let w =
    Vec.scale 0.5 (Vec.add (Kron.vec b0 b1) (Kron.vec b1 b0))
  in
  let r = Clu.solve_shifted (Kron.sum_pow g1 2) s (Cvec.of_real w) in
  let g2d = Sptensor.to_dense q.Volterra.Qldae.g2 in
  let g2r =
    Cvec.make ~re:(Mat.mul_vec g2d (Cvec.real_part r))
      ~im:(Mat.mul_vec g2d (Cvec.imag_part r))
  in
  let dense = Clu.solve_shifted g1 s g2r in
  check_small "mixed-input H2assoc structured = dense"
    (Cvec.dist fast dense /. (1.0 +. Cvec.norm2 dense))
    1e-8

let suite =
  let tc = Alcotest.test_case in
  [
    ( "volterra.variational",
      [
        tc "linear system cascade" `Quick test_variational_linear;
        tc "quartic convergence of the series" `Slow test_variational_convergence;
      ] );
    ( "volterra.transfer",
      [
        tc "H1 resolvent residual" `Quick test_h1_resolvent;
        tc "H2 symmetry" `Quick test_h2_symmetry;
        tc "H3 permutation invariance" `Quick test_h3_symmetry;
        tc "H2(jw,-jw) = DC rectification" `Slow test_h2_matches_variational_single_tone;
      ] );
    ( "volterra.assoc",
      [
        tc "H2assoc vs dense eq.17 realization" `Quick test_h2_eval_vs_dense_eq17;
        tc "H3assoc vs dense block realization" `Quick test_h3_eval_vs_dense;
        tc "H1 moment chain" `Quick test_h1_moments_chain;
        tc "H2 moments = Taylor coefficients" `Quick test_h2_moments_vs_fd;
        tc "H3 moments = Taylor coefficients" `Quick test_h3_moments_vs_fd;
        tc "association = diagonal kernel (H2, pulse)" `Slow
          test_association_diagonal_kernel_h2;
        tc "association = diagonal kernel (H3, cubic)" `Slow
          test_association_diagonal_kernel_h3_cubic;
        tc "MISO moment enumeration" `Quick test_miso_moments_counts;
        tc "MISO mixed-pair H2assoc" `Quick test_miso_h2_eval_vs_dense;
        tc "H3 moments = three-pairing reference" `Quick
          test_h3_moments_vs_reference;
        tc "default s0: pivot scale without underflow" `Quick test_default_s0;
      ] );
  ]
