(* The one counter registry behind Metrics and Cost.

   Each domain ticks into its own flat int array held in a [Domain.DLS]
   slot, so an increment is one atomic-flag load, one DLS fetch and one
   bounds-checked store — no lock, no contention.  Readers merge every
   registered array under [mu]; the merge after [Domain.join] is exact
   because the child's stores happen-before the join.

   The upper half of each array is the domain's carry: worker-lane
   deltas that [Par] folds onto the calling domain at region join.
   [local] adds it in, [merged] leaves it out, so spans (which diff
   [local]) stay inclusive around parallel regions while process
   totals count every tick once. *)

let size = 24

(* own counts, then the carry *)
let width = 2 * size

let mu = Mutex.create ()

(* Every per-domain array ever handed out.  Arrays outlive their
   domain so joined children keep contributing to the merge. *)
let domains : int array list ref = ref [] [@@vmor.sync "guarded by mu"]

let slot =
  Domain.DLS.new_key (fun () ->
      let a = Array.make width 0 in
      Mutex.protect mu (fun () -> domains := a :: !domains);
      a)

let enabled = Atomic.make true

let set_enabled b = Atomic.set enabled b

let merged () =
  Mutex.protect mu (fun () ->
      let out = Array.make size 0 in
      List.iter
        (fun a ->
          for i = 0 to size - 1 do
            out.(i) <- out.(i) + a.(i)
          done)
        !domains;
      out)

let reset () =
  Mutex.protect mu (fun () -> List.iter (fun a -> Array.fill a 0 width 0) !domains)

let local () =
  let a = Domain.DLS.get slot in
  Array.init size (fun i -> a.(i) + a.(size + i))

let local_since snap =
  let now = local () in
  Array.mapi (fun i v -> v - snap.(i)) now

let carry delta =
  let a = Domain.DLS.get slot in
  Array.iteri (fun i d -> a.(size + i) <- a.(size + i) + d) delta

let nonzero index cs before after =
  List.filter_map
    (fun c ->
      let d = after.(index c) - before.(index c) in
      if d = 0 then None else Some (c, d))
    cs
