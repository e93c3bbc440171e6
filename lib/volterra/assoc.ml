(* Associated transforms of the high-order Volterra transfer functions —
   the paper's core contribution (§2.2-2.3).

   Theorem 1 (+ corollary) and Theorem 2 collapse the multivariate
   H2(s1,s2), H3(s1,s2,s3) into single-s functions built from Kronecker
   sums of G1. With inputs a, b, c (columns b_a of B) and the symmetric
   couplings stored in {!Qldae}:

     H2^{ab}(s) = (sI-G1)^-1 ( G2 (sI - ⊕²G1)^-1 w_ab + d_ab )
         w_ab = sym(b_a ⊗ b_b),  d_ab = (D1_a b_b + D1_b b_a)/2

   (paper eq. 17: the (n+n²)-state LTI realization), and

     H3^{abc}(s) = (sI-G1)^-1 [ 2 G2 W(s)
                                + (1/3) Σ_pairings D1_i H2^{jk}(s)
                                + G3 R(s) ]

     R(s) = N3(s)^-1 q_abc,                 q_abc = sym(b_a ⊗ b_b ⊗ b_c)
     W(s) = N2(s)^-1 [ d_abc + (I_n ⊗ G2) R(s) ],
                                 d_abc = (1/3) Σ_pairings b_i ⊗ d_jk

   over the three pairings (i;jk) = (a;bc), (b;ac), (c;ab), with
   N2(s) = sI - ⊕²G1, N3(s) = sI - ⊕³G1. The paper's block realization
   gives one W per pairing,

     W^(i;jk)(s) = (I_n ⊗ c~2)(sI - G1 ⊕ A~2)^-1 (b_i ⊗ b~2^{jk})
                 = N2(s)^-1 [ b_i ⊗ d_jk + (I ⊗ G2) N3(s)^-1 (b_i ⊗ w_jk) ]

   weighted (2/3) Σ_pairings G2 W^(i;jk) (the G1 ⊕ A~2 operator is
   block-triangular with diagonal blocks N2, N3, so it is never formed).
   Every operator in W^(i;jk) is shared by the pairings, and the
   right-hand sides sum to Σ_pairings b_i ⊗ w_jk = 3 q_abc (each of the
   six orderings of a, b, c appears once, with weight 1/2), so by
   linearity Σ_pairings W^(i;jk) = 3 W: one N3 chain per triple, the
   same one the G3 term runs on.
   The paper's printed third-order formula abbreviates the D1 part as
   "D1² b"; the D1_i H2^{jk}(s) term above is the full expression (it
   contains D1² b through H2's own D1 feed-through).

   Moments: Taylor coefficients about a real expansion point s0
   (s0 = 0 when G1 is invertible, s0 > 0 for quadratized diode circuits
   whose augmented G1 has nullity = #diodes — see DESIGN.md). All series
   are generated by resolvent recursions; every n²/n³ operation goes
   through the structured Kronecker-sum solver {!La.Ksolve}, so nothing
   of size n² x n² is ever materialized. The m-th vector produced is
   the exact coefficient of (-δ)^m, i.e. (-1)^m times the Taylor
   coefficient — the sign is irrelevant for subspace spanning and
   accounted for in tests. *)

open La

type t = {
  q : Qldae.t;
  s0 : float;
  policy : Robust.Policy.t;
  recorder : Robust.Report.recorder option;
  fault : Robust.Faultify.t option;  (* injected on msolve outputs *)
  ladder : Ladder.t;  (* (s0 I - G1) through LU -> pivoted QR -> Tikhonov *)
  ks : Ksolve.t lazy_t;  (* Schur of G1 for Kronecker-sum solves *)
  g2_packed : Cmat.t lazy_t;
      (* G2 (U ⊗ U) over unordered column pairs: the right half of the
         Schur-basis coupling U^H G2 (U ⊗ U) used by the third-order
         series (see {!apply_coupling}) *)
}

let default_s0 (q : Qldae.t) =
  (* Quadratized diode circuits have singular G1 (see DESIGN.md): their
     moments must expand at s0 > 0. A borderline-singular LU pivot is
     the cheap detector: the geometric mean of the |u_ii|, formed from
     their logs so a large well-scaled G1 does not underflow it. *)
  if Qldae.has_d1 q then 1.0
  else begin
    match Lu.factor q.Qldae.g1 with
    | exception Lu.Singular _ -> 1.0
    | lu ->
      let n = Qldae.dim q in
      if Lu.log_abs_det lu /. float_of_int n < log 1e-6 then 1.0 else 0.0
  end

(* Column of the unordered pair j1 <= j2 in an n x n(n+1)/2 packed
   coupling: rows j1 = 0, 1, ... of the upper triangle, concatenated. *)
let packed_col ~n j1 j2 = (j1 * n) - (j1 * (j1 - 1) / 2) + (j2 - j1)

let create ?recorder ?(policy = Robust.Policy.default ()) ?fault ?s0
    (q : Qldae.t) : t =
  let s0 = match s0 with Some s -> s | None -> default_s0 q in
  let n = Qldae.dim q in
  let m = Mat.sub (Mat.scale s0 (Mat.identity n)) q.Qldae.g1 in
  let ks =
    lazy
      (let ks = Ksolve.prepare q.Qldae.g1 in
       (* Conditioning of the shifted Kronecker-sum operators the
          higher-order series will run through — sampled off the Schur
          eigenvalues, so cheap enough to record at first use. *)
       if Obs.Health.active () then begin
         let sigma = { Complex.re = s0; im = 0.0 } in
         List.iter
           (fun k ->
             Obs.Health.emit
               (Obs.Health.Cond
                  {
                    context = Printf.sprintf "assoc.ksum.k%d" k;
                    dim = n;
                    cond = Ksolve.cond_estimate ks ~k ~sigma;
                  }))
           [ 2; 3 ]
       end;
       ks)
  in
  let g2_packed =
    lazy
      (let u = Ksolve.unitary (Lazy.force ks) in
       let entries = Array.of_list (Sptensor.entries q.Qldae.g2) in
       let out = Cmat.create n (n * (n + 1) / 2) in
       (* G2 (u_{j1} ⊗ u_{j2}), accumulated straight off the sparse
          entries into the column of the unordered pair {j1, j2}: the
          columns (j1, j2) and (j2, j1) of G2 (U ⊗ U) arrive pre-summed *)
       Array.iter
         (fun (row, (idx : int array), coeff) ->
           let i1 = idx.(0) and i2 = idx.(1) in
           for j1 = 0 to n - 1 do
             let ur = Cmat.get u i1 j1 in
             if Contract.nonzero ur.re || Contract.nonzero ur.im then
               for j2 = 0 to n - 1 do
                 let vr = Cmat.get u i2 j2 in
                 Cmat.add_to out row
                   (if j1 <= j2 then packed_col ~n j1 j2
                    else packed_col ~n j2 j1)
                   {
                     Complex.re = coeff *. ((ur.re *. vr.re) -. (ur.im *. vr.im));
                     im = coeff *. ((ur.re *. vr.im) +. (ur.im *. vr.re));
                   }
               done
           done)
         entries;
       out)
  in
  let ladder =
    Ladder.make ?recorder ~mu:policy.Robust.Policy.tikhonov_mu
      ~loc:(Robust.Error.loc ~subsystem:"volterra" ~operation:"Assoc.msolve")
      m
  in
  (* Conditioning of (s0 I - G1): the ladder factors its LU rung
     eagerly, so the estimate reuses that factorization. *)
  (if Obs.Health.active () then
     match Ladder.lu ladder with
     | Some lu ->
       Obs.Health.emit
         (Obs.Health.Cond
            { context = "assoc.resolvent"; dim = n; cond = Lu.condest lu })
     | None -> ());
  {
    q;
    s0;
    policy;
    recorder;
    fault = Option.map Robust.Faultify.make fault;
    ladder;
    ks;
    g2_packed;
  }

let s0 t = t.s0

let qldae t = t.q

let report t =
  match t.recorder with
  | None -> Robust.Report.empty
  | Some r -> Robust.Report.events r

(* Regularization strength for shifted Kronecker-sum retries, scaled to
   the expansion point so the pole displacement stays relative. *)
let reg_mu t = t.policy.Robust.Policy.tikhonov_mu *. (1.0 +. Float.abs t.s0)

let nsolve_loc = Robust.Error.loc ~subsystem:"volterra" ~operation:"Assoc.nsolve"

(* (s0 I - G1)^-1 v, through the fallback ladder; the fault-injection
   hook corrupts the output on scheduled calls. Every moment of every
   order ends in an msolve, so this one hook covers H1/H2/H3. *)
let msolve t v =
  let x = Ladder.solve t.ladder v in
  match t.fault with None -> x | Some f -> Robust.Faultify.inject f x

(* (s0 I - ⊕^k G1)^-1 v; a near-singular shift retries once with the
   Tikhonov-regularized scalar inverse (minimum-norm at exact poles). *)
let nsolve t ~k v =
  let ks = Lazy.force t.ks in
  try Ksolve.solve_shifted_real ks ~k ~sigma:t.s0 v
  with
  | Ksolve.Near_singular d when t.policy.Robust.Policy.tikhonov_mu > 0.0 ->
    Robust.Report.record_opt t.recorder ~action:"fallback:tikhonov"
      (Robust.Error.Singular_solve
         { loc = nsolve_loc; shift = t.s0; distance = d });
    Ksolve.solve_shifted_real_reg ks ~k ~sigma:t.s0 ~mu:(reg_mu t) v

(* Schur-basis triangular solve with the same retry semantics as
   {!nsolve}, for the third-order series recursion. *)
let tri_robust t ks ~kk ~sigma v =
  try Ksolve.tri_solve_shifted ks ~k:kk ~sigma v
  with
  | Ksolve.Near_singular d when t.policy.Robust.Policy.tikhonov_mu > 0.0 ->
    Robust.Report.record_opt t.recorder ~action:"fallback:tikhonov"
      (Robust.Error.Singular_solve
         { loc = nsolve_loc; shift = sigma.Complex.re; distance = d });
    Ksolve.tri_solve_shifted ~mu:(reg_mu t) ks ~k:kk ~sigma v

(* symmetrized Kronecker pair of input columns *)
let w_pair (q : Qldae.t) a b =
  let ba = Qldae.b_col q a and bb = Qldae.b_col q b in
  if a = b then Kron.vec ba bb
  else
    Vec.scale 0.5 (Vec.add (Kron.vec ba bb) (Kron.vec bb ba))

let d_pair (q : Qldae.t) a b =
  let ba = Qldae.b_col q a and bb = Qldae.b_col q b in
  let v = Vec.create (Qldae.dim q) in
  if Qldae.has_d1 q then begin
    Vec.axpy ~alpha:0.5 (Mat.mul_vec q.Qldae.d1.(a) bb) v;
    Vec.axpy ~alpha:0.5 (Mat.mul_vec q.Qldae.d1.(b) ba) v
  end;
  v

(* unordered input pairs / triples *)
let pairs m = List.concat (List.init m (fun a -> List.init (m - a) (fun i -> (a, a + i))))

let triples m =
  List.concat
    (List.init m (fun a ->
         List.concat
           (List.init (m - a) (fun i ->
                List.init (m - a - i) (fun j -> (a, a + i, a + i + j))))))

(* VMOR_CHECKS-gated finiteness sweep over a finished moment list: a NaN
   here (near-singular resolvent, overflowing series) would silently
   corrupt the projection basis downstream. *)
let check_moments ctx (vs : Vec.t list) : Vec.t list =
  if Contract.checks_enabled () then
    List.iter (fun v -> Contract.require_finite ctx v) vs;
  vs

(* ---- H1 ---- *)

(* k moment vectors of H1 about s0, for every input column. *)
let h1_moments t ~k : Vec.t list =
  Obs.Span.with_ ~name:"assoc.h1_moments" @@ fun () ->
  let q = t.q in
  check_moments "Assoc.h1_moments"
  @@ List.concat_map
    (fun a ->
      let rec go v j acc =
        if j >= k then List.rev acc
        else begin
          let v' = msolve t v in
          go v' (j + 1) (v' :: acc)
        end
      in
      go (Qldae.b_col q a) 0 [])
    (List.init (Qldae.n_inputs q) Fun.id)

(* ---- H2 ---- *)

(* Series engine for one input pair: returns moments m_0 .. m_{k-1} of
   H2^{ab}(s) about s0 (coefficients of (-δ)^m). *)
let h2_moment_series t ~k (a, b) : Vec.t list =
  if k <= 0 then []
  else begin
    let q = t.q in
    let w = w_pair q a b and d = d_pair q a b in
    let g2r r = Sptensor.apply_flat q.Qldae.g2 r in
    let r = ref (nsolve t ~k:2 w) in
    let m0 = msolve t (Vec.add (g2r !r) d) in
    let acc = ref [ m0 ] and prev = ref m0 in
    for _ = 1 to k - 1 do
      r := nsolve t ~k:2 !r;
      let m = msolve t (Vec.add !prev (g2r !r)) in
      acc := m :: !acc;
      prev := m
    done;
    List.rev !acc
  end

let h2_moments t ~k : Vec.t list =
  if not (Qldae.has_g2 t.q || Qldae.has_d1 t.q) then []
  else
    Obs.Span.with_ ~name:"assoc.h2_moments" @@ fun () ->
    check_moments "Assoc.h2_moments"
      (List.concat_map (h2_moment_series t ~k) (pairs (Qldae.n_inputs t.q)))

(* ---- H3 ---- *)

(* The distinct members of [xs] with their share of it:
   [x; x; y] -> [(2/3, x); (1/3, y)]. Repeated inputs make some
   pairings and orderings of a triple coincide. *)
let shares xs =
  let len = float_of_int (List.length xs) in
  List.map
    (fun x ->
      (float_of_int (List.length (List.filter (( = ) x) xs)) /. len, x))
    (List.sort_uniq compare xs)

(* The three pairings (i; jk) of a triple, pairs unordered. *)
let pairings (a, b, c) =
  let pair j l = if j <= l then (j, l) else (l, j) in
  shares [ (a, pair b c); (b, pair a c); (c, pair a b) ]

(* The six orderings of a triple, for sym(b_a ⊗ b_b ⊗ b_c). *)
let orderings (a, b, c) =
  shares [ (a, b, c); (a, c, b); (b, a, c); (b, c, a); (c, a, b); (c, b, a) ]

(* (I ⊗ G2) z for a flat n³ vector: apply G2 to each leading slice. *)
let i_kron_g2 (q : Qldae.t) (z : Vec.t) : Vec.t =
  let n = Qldae.dim q in
  let n2 = n * n in
  let out = Vec.create (n * n) in
  for i = 0 to n - 1 do
    let slice = Vec.slice z ~pos:(i * n2) ~len:n2 in
    let gi = Sptensor.apply_flat q.Qldae.g2 slice in
    Array.blit gi 0 out (i * n) n
  done;
  out

(* VMOR_CHECKS contract of the packed coupling: it reads only the
   j1 <= j2 half of each slice, which is exact only when the order-3
   tensor [z] is symmetric in its last two modes. *)
let require_mode_symmetric ctx ~n (z : Cvec.t) =
  let n2 = n * n in
  let diff = ref 0.0 and norm = ref 0.0 in
  for i = 0 to n - 1 do
    for j1 = 0 to n - 1 do
      for j2 = 0 to n - 1 do
        let x = (i * n2) + (j1 * n) + j2 and y = (i * n2) + (j2 * n) + j1 in
        let dr = z.Cvec.re.(x) -. z.Cvec.re.(y)
        and di = z.Cvec.im.(x) -. z.Cvec.im.(y) in
        diff := !diff +. (dr *. dr) +. (di *. di);
        norm := !norm +. (z.Cvec.re.(x) *. z.Cvec.re.(x))
                +. (z.Cvec.im.(x) *. z.Cvec.im.(x))
      done
    done
  done;
  Contract.require ctx
    (sqrt !diff <= 1e-10 *. sqrt !norm)
    "not mode-symmetric"
    (Printf.sprintf "|z - swap23 z| = %.3e, |z| = %.3e" (sqrt !diff)
       (sqrt !norm))

(* C^ z = (I ⊗ U^H G2 (U ⊗ U)) z for a Schur-basis order-3 tensor z.

   The identity behind it:

     (U^H ⊗ U^H ⊗ U^H)(I ⊗ G2)(U ⊗ U ⊗ U) = I ⊗ (U^H G2 (U ⊗ U)),

   so the block coupling I ⊗ G2 of the (sI - G1 ⊕ A~2)^-1 solve acts
   slice-wise. The third-order iterates are symmetric in their last two
   modes (their right-hand side sym(b_a ⊗ b_b ⊗ b_c) is, and ⊕³T
   commutes with the mode swap), so each slice is read over j1 <= j2
   only, against the packed n x n(n+1)/2 coupling whose columns hold
   (j1, j2) + (j2, j1): half the flops and memory of the full n x n². *)
let apply_coupling t ks (z : Cvec.t) : Cvec.t =
  let n = Qldae.dim t.q in
  let n2 = n * n and np = n * (n + 1) / 2 in
  if Contract.checks_enabled () then
    require_mode_symmetric "Assoc.apply_coupling" ~n z;
  let pk = Lazy.force t.g2_packed in
  (* Hand-rolled dense complex n x n(n+1)/2 matvec per slice, n slices:
     8 flops per complex multiply-add.  The trailing U^H rotations
     (Cmat.mul_vec_adjoint) charge themselves. *)
  Obs.Cost.charge Obs.Cost.Flops_tensor (8 * n * n * np)
    ~read:((2 * n * np) + (2 * n * np)) ~written:(2 * n * n);
  let u = Ksolve.unitary ks in
  let pre = pk.Cmat.re and pim = pk.Cmat.im in
  let zre = z.Cvec.re and zim = z.Cvec.im in
  let out = Cvec.create n2 in
  let tmp = Cvec.create n in
  for i = 0 to n - 1 do
    for r = 0 to n - 1 do
      let sre = ref 0.0 and sim = ref 0.0 in
      for j1 = 0 to n - 1 do
        (* packed columns j1 .. n-1 of row j1 line up with z[i, j1, j1..] *)
        let pb = (r * np) + packed_col ~n j1 0 and zb = (i * n2) + (j1 * n) in
        for j2 = j1 to n - 1 do
          let mr = pre.(pb + j2) and mi = pim.(pb + j2) in
          let zr = zre.(zb + j2) and zi = zim.(zb + j2) in
          sre := !sre +. ((mr *. zr) -. (mi *. zi));
          sim := !sim +. ((mr *. zi) +. (mi *. zr))
        done
      done;
      tmp.Cvec.re.(r) <- !sre;
      tmp.Cvec.im.(r) <- !sim
    done;
    let hat = Cmat.mul_vec_adjoint u tmp in
    Array.blit hat.Cvec.re 0 out.Cvec.re (i * n) n;
    Array.blit hat.Cvec.im 0 out.Cvec.im (i * n) n
  done;
  out

(* Moments of H3^{abc}(s) about s0 for one input triple.

   All n²/n³-sized series iterates are kept in the Schur basis of G1,
   so each order costs one triangular back-substitution per chain plus
   one application of the packed coupling — never a full set of unitary
   mode transforms. The chains of the summed form in the header:

     r_0 = (σ - ⊕³T)^-1 q^,          r_m = (σ - ⊕³T)^-1 r_{m-1}
     w_0 = (σ - ⊕²T)^-1 (d^ + C^ r_0), w_m = (σ - ⊕²T)^-1 (w_{m-1} + C^ r_m)

   with q^, d^ the Schur images of q_abc, d_abc; moment m gathers
   2 G2 w_m + (1/3) Σ D1_i H2^{jl}_m + G3 r_m in original coordinates. *)
let h3_moment_series t ~k (a, b, c) : Vec.t list =
  if k <= 0 then []
  else begin
    let q = t.q in
    let n = Qldae.dim q in
    let has_g2 = Qldae.has_g2 q and has_g3 = Qldae.has_g3 q in
    let has_d1 = Qldae.has_d1 q in
    let ks = Lazy.force t.ks in
    let sigma = { Complex.re = t.s0; im = 0.0 } in
    let tri ~kk v = tri_robust t ks ~kk ~sigma v in
    let u = Ksolve.unitary ks in
    (* Schur images of the input columns *)
    let bhat =
      Array.init (Qldae.n_inputs q) (fun i -> Ksolve.adjoint_vec ks (Qldae.b_col q i))
    in
    let ps = pairings (a, b, c) in
    (* the D1 term's H2^{jl} series, one per distinct pairing *)
    let h2 =
      if has_d1 then
        List.map
          (fun (wt, (i, jl)) -> (wt, i, Array.of_list (h2_moment_series t ~k jl)))
          ps
      else []
    in
    (* Σ wt·v over weighted Schur-basis terms of length [len] *)
    let combine len terms =
      let acc = Cvec.create len in
      List.iter
        (fun (wt, v) -> Cvec.axpy ~alpha:{ Complex.re = wt; im = 0.0 } v acc)
        terms;
      acc
    in
    (* r: the order-3 chain behind both the I ⊗ G2 and the G3 terms *)
    let r =
      ref
        (if has_g2 || has_g3 then
           Some
             (tri ~kk:3
                (combine (n * n * n)
                   (List.map
                      (fun (wt, (i, j, l)) ->
                        (wt, Cvec.kron (Cvec.kron bhat.(i) bhat.(j)) bhat.(l)))
                      (orderings (a, b, c)))))
         else None)
    in
    (* w: the order-2 chain of W, driven by d^ and the coupled r *)
    let w =
      ref
        (match !r with
        | Some r0 when has_g2 ->
          let dhat =
            combine (n * n)
              (List.map
                 (fun (wt, (i, (j, l))) ->
                   ( wt,
                     Cvec.kron bhat.(i)
                       (Cmat.mul_vec_adjoint u (Cvec.of_real (d_pair q j l))) ))
                 ps)
          in
          Some (tri ~kk:2 (Cvec.add dhat (apply_coupling t ks r0)))
        | _ -> None)
    in
    let inner m =
      let acc = Vec.create n in
      Option.iter
        (fun w ->
          (* W_m back in original coordinates (real up to rounding) *)
          let w_m = Cvec.real_part (Ksolve.from_schur ks ~k:2 w) in
          Vec.axpy ~alpha:2.0 (Sptensor.apply_flat q.Qldae.g2 w_m) acc)
        !w;
      List.iter
        (fun (wt, i, s) -> Vec.axpy ~alpha:wt (Mat.mul_vec q.Qldae.d1.(i) s.(m)) acc)
        h2;
      (if has_g3 then
         match !r with
         | Some r ->
           let r_orig = Cvec.real_part (Ksolve.from_schur ks ~k:3 r) in
           Vec.axpy ~alpha:1.0 (Sptensor.apply_flat q.Qldae.g3 r_orig) acc
         | None -> ());
      acc
    in
    let advance () =
      r := Option.map (fun r -> tri ~kk:3 r) !r;
      w :=
        match (!w, !r) with
        | Some w, Some r -> Some (tri ~kk:2 (Cvec.add w (apply_coupling t ks r)))
        | _ -> None
    in
    let m0 = msolve t (inner 0) in
    let acc = ref [ m0 ] and prev = ref m0 in
    for m = 1 to k - 1 do
      advance ();
      let hm = msolve t (Vec.add !prev (inner m)) in
      acc := hm :: !acc;
      prev := hm
    done;
    List.rev !acc
  end

let h3_moments ?(triples_mode = `All) t ~k : Vec.t list =
  let q = t.q in
  if not (Qldae.has_g2 q || Qldae.has_g3 q || Qldae.has_d1 q) then []
  else
    Obs.Span.with_ ~name:"assoc.h3_moments" @@ fun () ->
    let ts =
      match triples_mode with
      | `All -> triples (Qldae.n_inputs q)
      | `Diagonal -> List.init (Qldae.n_inputs q) (fun a -> (a, a, a))
    in
    check_moments "Assoc.h3_moments" (List.concat_map (h3_moment_series t ~k) ts)

(* ---- single-s evaluation of the associated transfer functions ---- *)

(* complex resolvent solve (sI - G1)^-1 v *)
let msolve_c t (s : Complex.t) (v : Cvec.t) : Cvec.t =
  Clu.solve_shifted t.q.Qldae.g1 s v

let nsolve_c t ~k (s : Complex.t) (v : Cvec.t) : Cvec.t =
  Ksolve.solve_shifted (Lazy.force t.ks) ~k ~sigma:s v

(* a real linear map applied to the real and imaginary parts *)
let apply_real f (v : Cvec.t) : Cvec.t =
  Cvec.make ~re:(f (Cvec.real_part v)) ~im:(f (Cvec.imag_part v))

(* H2^{ab}(s) = A2(H2^{ab}(s1,s2)) evaluated at a complex s. *)
let h2_eval t ~inputs:(a, b) (s : Complex.t) : Cvec.t =
  let q = t.q in
  let r = nsolve_c t ~k:2 s (Cvec.of_real (w_pair q a b)) in
  let g2r = apply_real (Sptensor.apply_flat q.Qldae.g2) r in
  let rhs = Cvec.add g2r (Cvec.of_real (d_pair q a b)) in
  msolve_c t s rhs

(* H3^{abc}(s) = A3(H3^{abc}) evaluated at a complex s, in the summed
   form of the header: one N3 and one N2 solve. *)
let h3_eval t ~inputs:(a, b, c) (s : Complex.t) : Cvec.t =
  let q = t.q in
  let n = Qldae.dim q in
  let acc = Cvec.create n in
  let ps = pairings (a, b, c) in
  let r =
    if Qldae.has_g2 q || Qldae.has_g3 q then begin
      let q3 = Vec.create (n * n * n) in
      List.iter
        (fun (wt, (i, j, l)) ->
          Vec.axpy ~alpha:wt
            (Kron.vec (Kron.vec (Qldae.b_col q i) (Qldae.b_col q j)) (Qldae.b_col q l))
            q3)
        (orderings (a, b, c));
      Some (nsolve_c t ~k:3 s (Cvec.of_real q3))
    end
    else None
  in
  (match r with
  | Some r when Qldae.has_g2 q ->
    let d = Vec.create (n * n) in
    List.iter
      (fun (wt, (i, (j, l))) ->
        Vec.axpy ~alpha:wt (Kron.vec (Qldae.b_col q i) (d_pair q j l)) d)
      ps;
    let w = nsolve_c t ~k:2 s (Cvec.add (Cvec.of_real d) (apply_real (i_kron_g2 q) r)) in
    Cvec.axpy ~alpha:{ Complex.re = 2.0; im = 0.0 }
      (apply_real (Sptensor.apply_flat q.Qldae.g2) w) acc
  | _ -> ());
  if Qldae.has_d1 q then
    List.iter
      (fun (wt, (i, jl)) ->
        Cvec.axpy ~alpha:{ Complex.re = wt; im = 0.0 }
          (apply_real (Mat.mul_vec q.Qldae.d1.(i)) (h2_eval t ~inputs:jl s))
          acc)
      ps;
  (match r with
  | Some r when Qldae.has_g3 q ->
    Cvec.axpy ~alpha:Complex.one (apply_real (Sptensor.apply_flat q.Qldae.g3) r) acc
  | _ -> ());
  msolve_c t s acc
