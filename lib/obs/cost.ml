(* Deterministic work accounting: nominal flops and bytes per kernel.

   The counters share [Metrics]' registry ([Counters], indices
   12..23), so a charge is one atomic-flag load, one DLS fetch and a
   few bounds-checked stores, and the merge after [Domain.join] is
   exact.

   Charges are *nominal*: closed-form functions of the operand
   dimensions at each kernel call (2mn for an m-by-n matvec, 2n^3/3
   for an LU factorization), never of data values, never of observer
   state.  That makes every counter bit-identical across repeated
   runs, across domain counts, and across traced vs untraced
   executions — which is what lets the bench gate pin the whole block
   with exact zero-tolerance bands (DESIGN.md section 15).  Tick sites
   follow a single-charge policy: leaf kernels (Mat, Lu, Qr, Ksolve,
   Sptensor) charge themselves; composite layers charge only work
   that does not route through an instrumented leaf. *)

type counter =
  | Flops_axpy
  | Flops_matvec
  | Flops_matmul
  | Flops_lu
  | Flops_trisolve
  | Flops_schur
  | Flops_tensor
  | Flops_ortho
  | Flops_ode_rhs
  | Flops_stepper
  | Bytes_read
  | Bytes_written

let index = function
  | Flops_axpy -> 12
  | Flops_matvec -> 13
  | Flops_matmul -> 14
  | Flops_lu -> 15
  | Flops_trisolve -> 16
  | Flops_schur -> 17
  | Flops_tensor -> 18
  | Flops_ortho -> 19
  | Flops_ode_rhs -> 20
  | Flops_stepper -> 21
  | Bytes_read -> 22
  | Bytes_written -> 23

let name = function
  | Flops_axpy -> "flops_axpy"
  | Flops_matvec -> "flops_matvec"
  | Flops_matmul -> "flops_matmul"
  | Flops_lu -> "flops_lu"
  | Flops_trisolve -> "flops_trisolve"
  | Flops_schur -> "flops_schur"
  | Flops_tensor -> "flops_tensor"
  | Flops_ortho -> "flops_ortho"
  | Flops_ode_rhs -> "flops_ode_rhs"
  | Flops_stepper -> "flops_stepper"
  | Bytes_read -> "bytes_read"
  | Bytes_written -> "bytes_written"

let all =
  [ Flops_axpy; Flops_matvec; Flops_matmul; Flops_lu; Flops_trisolve;
    Flops_schur; Flops_tensor; Flops_ortho; Flops_ode_rhs; Flops_stepper;
    Bytes_read; Bytes_written ]

let of_name s = List.find_opt (fun c -> name c = s) all

let is_flops = function Bytes_read | Bytes_written -> false | _ -> true

(* [read]/[written] are in 8-byte floating-point words; the bytes
   counters store bytes.  One DLS fetch covers all three stores. *)
let charge ?(read = 0) ?(written = 0) c flops =
  if Atomic.get Counters.enabled then begin
    let a = Domain.DLS.get Counters.slot in
    let i = index c in
    a.(i) <- a.(i) + flops;
    if read <> 0 then a.(22) <- a.(22) + (8 * read);
    if written <> 0 then a.(23) <- a.(23) + (8 * written)
  end

let get c = (Counters.merged ()).(index c)

type snapshot = int array

let snapshot = Counters.merged

let since snap = Counters.nonzero index all snap (Counters.merged ())

let total_flops deltas =
  List.fold_left (fun acc (c, n) -> if is_flops c then acc + n else acc) 0 deltas

let total_bytes deltas =
  List.fold_left
    (fun acc (c, n) -> if is_flops c then acc else acc + n)
    0 deltas
