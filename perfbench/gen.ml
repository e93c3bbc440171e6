(* Seeded request generator for the two benchmark workloads.

   A stream is a sequence of cycles. One cycle covers a fixed grid
   exactly once, in seeded order:
   - [reduce]: family x size (4 x 4 = 16 reductions);
   - [transient]: family x waveform kind (5 x 5 = 25 ROM/full pairs,
     NLTL-V twice).
   The seed draws the order, a small perturbation of each model's
   nonlinear coefficient, and each drive's amplitude and frequency.
   Every cycle therefore carries the same mix of work, which keeps
   throughput and latency quantiles comparable across seeds, while the
   numbers the library sees differ from seed to seed. *)

(* Wall time of one cycle in reference seconds, measured when the
   benchmark was defined. A run of [--seconds S] measures
   [round (S / cycle_seconds)] cycles (at least one): the request count,
   and with it the tail percentile, is then the same on every run. *)
let reduce_cycle_seconds = 17.2
let transient_cycle_seconds = 15.6

let cycles ~seconds ~cycle_seconds =
  max 1 (Float.to_int (Float.round (seconds /. cycle_seconds)))

open Vmor

type family = Nltl_v | Nltl_i | Rf | Varistor

let families = [ Nltl_v; Nltl_i; Rf; Varistor ]

let family_name = function
  | Nltl_v -> "nltl_v"
  | Nltl_i -> "nltl_i"
  | Rf -> "rf"
  | Varistor -> "varistor"

(* The paper's orders: 6 H1, 3 H2 and 2 H3 moments; the cubic varistor
   has no quadratic coupling, so it matches no H2 moments (Fig. 5). *)
let orders = function
  | Varistor -> { Vmor.k1 = 6; k2 = 0; k3 = 2 }
  | Nltl_v | Nltl_i | Rf -> { Vmor.k1 = 6; k2 = 3; k3 = 2 }

(* Expansion points of the paper figures: 0.5 for NLTL-V and the
   varistor, the engine's default for the others. *)
let s0 = function Nltl_v | Varistor -> Some 0.5 | Nltl_i | Rf -> None

(* The RF receiver ladders are stiff; the paper figure integrates them
   with the trapezoidal rule. The others use the adaptive default. *)
let imtrap_step = 0.02

let solver = function
  | Rf -> Some (Volterra.Qldae.Imtrap imtrap_step)
  | Nltl_v | Nltl_i | Varistor -> None

let t1 = function Rf -> 20.0 | Nltl_v | Nltl_i | Varistor -> 30.0

(* State counts of one reduce cycle: the order-3 tensor (16 n^3 bytes)
   grows from 0.6 MiB to 3 MiB across the 2 MiB per-core L2, which it
   crosses at n = 51. *)
let reduce_sizes = [ 34; 42; 50; 58 ]

(* One mid-size model per family for the transient workload. *)
let transient_size = function
  | Nltl_v -> 34
  | Nltl_i -> 40
  | Rf -> 42
  | Varistor -> 45

(* Standing supply of the varistor (paper Fig. 5): the model is
   recentred at its DC operating point under this bias. *)
let varistor_bias = 22.0

type model_spec = {
  family : family;
  n : int;
  coeff : float;  (** multiplier on the family's nonlinear coefficient *)
}

let build (s : model_spec) : Volterra.Qldae.t =
  let module M = Circuit.Models in
  match s.family with
  | Nltl_v ->
    M.qldae
      (M.nltl ~stages:(s.n / 2) ~alpha:(40.0 *. s.coeff)
         ~source:(`Voltage 1.0) ~ground_diode:true ())
  | Nltl_i ->
    M.qldae
      (M.nltl ~stages:(s.n / 2) ~alpha:(40.0 *. s.coeff) ~source:`Current
         ~ground_diode:false ~linear_front:1 ())
  | Rf ->
    M.qldae
      (M.rf_receiver ~lna_stages:(s.n / 2) ~pa_stages:(s.n - (s.n / 2))
         ~g2_lna:(0.5 *. s.coeff) ~g2_pa:(1.0 *. s.coeff) ())
  | Varistor ->
    let q = M.qldae (M.varistor ~sections:(s.n - 5) ~g3_var:(2.4 *. s.coeff) ()) in
    let u0 = La.Vec.of_list [ varistor_bias ] in
    let x0 = Volterra.Qldae.dc_operating_point q ~u0 in
    Volterra.Qldae.shift_equilibrium q ~x0 ~u0

type wave = Damped_sine | Two_tone | Pulse_train | Surge | Raised_cosine

let waves = [ Damped_sine; Two_tone; Pulse_train; Surge; Raised_cosine ]

let wave_name = function
  | Damped_sine -> "damped_sine"
  | Two_tone -> "two_tone"
  | Pulse_train -> "pulse_train"
  | Surge -> "surge"
  | Raised_cosine -> "raised_cosine"

(* Largest drive amplitude of each family's paper figure (u1 of the RF
   receiver; its interferer u2 is capped at the figure's 0.5). The ROMs
   are Galerkin projections with no stability guarantee, so no request
   drives harder than the paper does. *)
let amp_cap = function
  | Nltl_v -> 0.8
  | Nltl_i -> 1.6
  | Rf -> 1.2
  | Varistor -> 98.0

type drive = {
  wave : wave;
  amp : float;
  freq : float;  (** main frequency; 1/freq is the pulse period or delay *)
  shape : float;  (** decay, second-tone ratio, duty, rise time or width *)
  noise_amp : float;  (** RF interferer on u2; 0 for single-input models *)
  noise_freq : float;
}

let signal d : Waves.Source.t =
  let module S = Waves.Source in
  match d.wave with
  | Damped_sine -> S.damped_sine ~freq:d.freq ~decay:d.shape d.amp
  | Two_tone ->
    S.two_tone ~f1:d.freq ~f2:(d.freq *. d.shape) (0.5 *. d.amp) (0.5 *. d.amp)
  | Pulse_train ->
    let period = 1.0 /. d.freq in
    S.pulse_train ~rise:(0.1 *. period) ~fall:(0.1 *. period)
      ~flat:(d.shape *. period) ~period d.amp
  | Surge -> S.surge ~t_rise:d.shape ~t_fall:(10.0 *. d.shape) d.amp
  | Raised_cosine -> S.raised_cosine ~at:(1.0 /. d.freq) ~width:d.shape d.amp

let input family d : float -> La.Vec.t =
  match family with
  | Rf ->
    Waves.Source.vectorize
      [ signal d; Waves.Source.sine ~freq:d.noise_freq d.noise_amp ]
  | Nltl_v | Nltl_i | Varistor -> Waves.Source.vectorize [ signal d ]

(* Each family's paper-figure input: the reduce workload's closing
   accuracy check drives its ROMs with these. *)
let paper_drive = function
  | Nltl_v ->
    { wave = Damped_sine; amp = 0.8; freq = 0.125; shape = 0.08;
      noise_amp = 0.0; noise_freq = 0.0 }
  | Nltl_i ->
    { wave = Damped_sine; amp = 1.6; freq = 0.125; shape = 0.06;
      noise_amp = 0.0; noise_freq = 0.0 }
  | Rf ->
    { wave = Damped_sine; amp = 1.2; freq = 0.25; shape = 0.05;
      noise_amp = 0.5; noise_freq = 0.9 }
  | Varistor ->
    { wave = Surge; amp = 98.0; freq = 0.0; shape = 0.6;
      noise_amp = 0.0; noise_freq = 0.0 }

let uniform rng lo hi = lo +. Random.State.float rng (hi -. lo)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One drive of [wave] for [family] whose amplitude and frequency lie
   in strata [ai] and [fi] of [strata]. The amplitude band is 60-100%
   of the paper's; the frequency band is that of the family's paper
   input, so the moment match about s0 covers it. *)
let draw_drive rng family wave ~strata ~ai ~fi =
  let stratum lo hi i =
    let u = (float_of_int i +. Random.State.float rng 1.0) /. float_of_int strata in
    lo +. ((hi -. lo) *. u)
  in
  let f_lo, f_hi = match family with Rf -> (0.15, 0.3) | _ -> (0.08, 0.16) in
  let amp = amp_cap family *. stratum 0.6 1.0 ai in
  let freq = stratum f_lo f_hi fi in
  let shape =
    match wave with
    | Damped_sine -> 0.07
    | Two_tone -> 1.5
    | Pulse_train -> 0.4
    | Surge -> 0.6
    | Raised_cosine -> 4.0
  in
  let noise_amp, noise_freq =
    match family with
    | Rf -> (0.5 *. uniform rng 0.5 1.0, uniform rng 0.7 1.0)
    | _ -> (0.0, 0.0)
  in
  { wave; amp; freq; shape; noise_amp; noise_freq }

(* Component values within +-5% of the paper circuits. *)
let draw_coeff rng = uniform rng 0.95 1.05

(* [slot] indexes [transient_mix]: which of the set-up models serves
   the request. *)
type transient_req = { slot : int; t_family : family; drive : drive }

(* [rng] is shared by successive cycles of one stream. *)
let reduce_cycle rng : model_spec list =
  shuffle rng
    (List.concat_map
       (fun family ->
         List.map (fun n -> { family; n; coeff = draw_coeff rng }) reduce_sizes)
       families)

(* One set-up model per slot. NLTL-V, the paper's headline figure,
   has two slots (two lines with different diode coefficients): with
   four equally weighted families the median latency would fall on the
   gap between two families' clusters. *)
let transient_mix = [ Nltl_v; Nltl_v; Nltl_i; Rf; Varistor ]

let transient_models rng : model_spec list =
  List.map (fun family -> { family; n = transient_size family; coeff = draw_coeff rng })
    transient_mix

(* The requests of a whole run, cycle by cycle. A cycle gives every
   slot one drive of every waveform kind. Across the [cycles] of a run
   the amplitude and the frequency of each (slot, kind) are Latin-
   hypercube sampled: each band is cut into one stratum per cycle,
   dealt out in seeded order. Every run therefore reaches the top of
   both bands for every kind, which keeps the worst error of a run
   steady across seeds. *)
let transient_stream rng ~cycles : transient_req list list =
  let strata = List.init cycles Fun.id in
  let dealt =
    List.mapi
      (fun slot family ->
        List.map
          (fun wave ->
            let a = Array.of_list (shuffle rng strata) in
            let f = Array.of_list (shuffle rng strata) in
            Array.init cycles (fun c ->
                let drive = draw_drive rng family wave ~strata:cycles ~ai:a.(c) ~fi:f.(c) in
                { slot; t_family = family; drive }))
          waves)
      transient_mix
    |> List.concat
  in
  List.init cycles (fun c -> shuffle rng (List.map (fun reqs -> reqs.(c)) dealt))

let rng ~seed ~stream = Random.State.make [| seed; Hashtbl.hash stream |]

(* Exact text of a request ([%h] prints every bit of a float), for the
   stream digest. *)
let describe_spec s = Printf.sprintf "%s/%d/%h" (family_name s.family) s.n s.coeff

let describe_drive family d =
  Printf.sprintf "%s/%s/%h/%h/%h/%h/%h" (family_name family) (wave_name d.wave)
    d.amp d.freq d.shape d.noise_amp d.noise_freq

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
