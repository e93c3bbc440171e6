(* Test-only reference for the third-order associated-transform moments:
   the three-pairing form that [Volterra.Assoc] ran before its pairings
   were summed into one chain. Each pairing (i; jl) of a triple
   (a; bc), (b; ac), (c; ab) runs its own Schur-basis chains

     z_m   = (σ - ⊕³T)^-(m+1) (b^_i ⊗ sym(b^_j ⊗ b^_l))
     wp_m  = (σ - ⊕²T)^-(m+1) (b^_i ⊗ d^_jl)
     wc_m  = (σ - ⊕²T)^-1 (wc_{m-1} + C^ z_m)

   through the full n x n² coupling G2 (U ⊗ U), its own D1 H2^{jl}
   series, and a separate order-3 chain for the G3 term. Built from
   public interfaces only: the resolvent is a plain LU of (s0 I - G1)
   and the Kronecker-sum solves carry no Tikhonov retry, so it is meant
   for well-conditioned test systems. *)

open La
module Q = Volterra.Qldae

let w_pair (q : Q.t) a b =
  let ba = Q.b_col q a and bb = Q.b_col q b in
  if a = b then Kron.vec ba bb
  else Vec.scale 0.5 (Vec.add (Kron.vec ba bb) (Kron.vec bb ba))

let d_pair (q : Q.t) a b =
  let ba = Q.b_col q a and bb = Q.b_col q b in
  let v = Vec.create (Q.dim q) in
  if Q.has_d1 q then begin
    Vec.axpy ~alpha:0.5 (Mat.mul_vec q.Q.d1.(a) bb) v;
    Vec.axpy ~alpha:0.5 (Mat.mul_vec q.Q.d1.(b) ba) v
  end;
  v

(* G2 (U ⊗ U), column (j1, j2) = G2 (u_{j1} ⊗ u_{j2}) *)
let g2_schur (q : Q.t) u =
  let n = Q.dim q in
  let out = Cmat.create n (n * n) in
  List.iter
    (fun (row, (idx : int array), coeff) ->
      for j1 = 0 to n - 1 do
        let ur = Cmat.get u idx.(0) j1 in
        for j2 = 0 to n - 1 do
          let vr = Cmat.get u idx.(1) j2 in
          Cmat.add_to out row
            ((j1 * n) + j2)
            (Complex.mul { Complex.re = coeff; im = 0.0 } (Complex.mul ur vr))
        done
      done)
    (Sptensor.entries q.Q.g2);
  out

let h3_moment_series ~s0 (q : Q.t) ~k (a, b, c) : Vec.t list =
  let n = Q.dim q in
  let has_g2 = Q.has_g2 q and has_g3 = Q.has_g3 q and has_d1 = Q.has_d1 q in
  let lu = Lu.factor (Mat.sub (Mat.scale s0 (Mat.identity n)) q.Q.g1) in
  let msolve = Lu.solve lu in
  let ks = Ksolve.prepare q.Q.g1 in
  let sigma = { Complex.re = s0; im = 0.0 } in
  let tri ~kk v = Ksolve.tri_solve_shifted ks ~k:kk ~sigma v in
  let u = Ksolve.unitary ks in
  let g2s = g2_schur q u in
  let bhat = Array.init (Q.n_inputs q) (fun i -> Ksolve.adjoint_vec ks (Q.b_col q i)) in
  let w_pair_schur j l =
    if j = l then Cvec.kron bhat.(j) bhat.(l)
    else
      Cvec.scale
        { Complex.re = 0.5; im = 0.0 }
        (Cvec.add (Cvec.kron bhat.(j) bhat.(l)) (Cvec.kron bhat.(l) bhat.(j)))
  in
  (* I ⊗ (U^H G2 (U ⊗ U)) on a Schur-basis order-3 tensor *)
  let apply_coupling (z : Cvec.t) : Cvec.t =
    let n2 = n * n in
    let out = Cvec.create n2 in
    for i = 0 to n - 1 do
      let slice =
        Cvec.make
          ~re:(Array.sub z.Cvec.re (i * n2) n2)
          ~im:(Array.sub z.Cvec.im (i * n2) n2)
      in
      let hat = Cmat.mul_vec_adjoint u (Cmat.mul_vec g2s slice) in
      Array.blit hat.Cvec.re 0 out.Cvec.re (i * n) n;
      Array.blit hat.Cvec.im 0 out.Cvec.im (i * n) n
    done;
    out
  in
  let q3_schur =
    if has_g3 then begin
      let sel = [| bhat.(a); bhat.(b); bhat.(c) |] in
      let acc = Cvec.create (n * n * n) in
      List.iter
        (fun (i, j, l) ->
          Cvec.axpy
            ~alpha:{ Complex.re = 1.0 /. 6.0; im = 0.0 }
            (Cvec.kron (Cvec.kron sel.(i) sel.(j)) sel.(l))
            acc)
        [ (0, 1, 2); (0, 2, 1); (1, 0, 2); (1, 2, 0); (2, 0, 1); (2, 1, 0) ];
      Some acc
    end
    else None
  in
  let pairings = [ (a, (b, c)); (b, (a, c)); (c, (a, b)) ] in
  let pairing_state =
    if has_g2 then
      List.map
        (fun (i, (j, l)) ->
          let dhat = Cmat.mul_vec_adjoint u (Cvec.of_real (d_pair q j l)) in
          let z = ref (tri ~kk:3 (Cvec.kron bhat.(i) (w_pair_schur j l))) in
          let wp = ref (tri ~kk:2 (Cvec.kron bhat.(i) dhat)) in
          let wc = ref (tri ~kk:2 (apply_coupling !z)) in
          (z, wp, wc))
        pairings
    else []
  in
  let eng = Volterra.Assoc.create ~s0 q in
  let h2_series =
    if has_d1 then
      List.map
        (fun (_, (j, l)) ->
          Array.of_list (Volterra.Assoc.h2_moment_series eng ~k (j, l)))
        pairings
    else []
  in
  let r3 = ref (Option.map (fun v -> tri ~kk:3 v) q3_schur) in
  let inner m =
    let acc = Vec.create n in
    List.iter
      (fun (_z, wp, wc) ->
        let w_m = Cvec.real_part (Ksolve.from_schur ks ~k:2 (Cvec.add !wp !wc)) in
        Vec.axpy ~alpha:(2.0 /. 3.0) (Sptensor.apply_flat q.Q.g2 w_m) acc)
      pairing_state;
    List.iteri
      (fun idx (i, _) ->
        Vec.axpy ~alpha:(1.0 /. 3.0)
          (Mat.mul_vec q.Q.d1.(i) (List.nth h2_series idx).(m))
          acc)
      (if has_d1 then pairings else []);
    Option.iter
      (fun r ->
        let r_orig = Cvec.real_part (Ksolve.from_schur ks ~k:3 r) in
        Vec.axpy ~alpha:1.0 (Sptensor.apply_flat q.Q.g3 r_orig) acc)
      !r3;
    acc
  in
  let advance () =
    List.iter
      (fun (z, wp, wc) ->
        z := tri ~kk:3 !z;
        wp := tri ~kk:2 !wp;
        wc := tri ~kk:2 (Cvec.add !wc (apply_coupling !z)))
      pairing_state;
    r3 := Option.map (fun r -> tri ~kk:3 r) !r3
  in
  let m0 = msolve (inner 0) in
  let acc = ref [ m0 ] and prev = ref m0 in
  for m = 1 to k - 1 do
    advance ();
    let hm = msolve (Vec.add !prev (inner m)) in
    acc := hm :: !acc;
    prev := hm
  done;
  List.rev !acc

(* every unordered input triple, in the engine's order *)
let triples m =
  List.concat
    (List.init m (fun a ->
         List.concat
           (List.init (m - a) (fun i ->
                List.init (m - a - i) (fun j -> (a, a + i, a + i + j))))))

let h3_moments ~s0 (q : Q.t) ~k : Vec.t list =
  List.concat_map (h3_moment_series ~s0 q ~k) (triples (Q.n_inputs q))
