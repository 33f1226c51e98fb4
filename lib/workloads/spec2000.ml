module Config = Fom_trace.Config

let kib n = n * 1024
let mib n = n * 1024 * 1024

(* A mid-road SPECint-like starting point; every preset overrides the
   fields that give the benchmark its published character. *)
let base name seed =
  {
    Config.name;
    seed;
    mix =
      {
        Config.load = 0.24;
        store = 0.10;
        branch = 0.17;
        jump = 0.03;
        mul = 0.01;
        div = 0.001;
      };
    deps =
      {
        Config.short_p = 0.85;
        short_mean = 3.0;
        long_max = 256;
        nsrc_weights = [| 0.15; 0.50; 0.35 |];
      };
    control =
      {
        Config.regions = 4;
        blocks_per_region = 24;
        chaotic_frac = 0.02;
        chaotic_low = 0.25;
        chaotic_high = 0.75;
        pattern_frac = 0.05;
        pattern_max_period = 24;
        loop_trip_mean = 24.0;
        bias = 0.005;
      };
    memory =
      {
        Config.local_frac = 0.85;
        random_frac = 0.10;
        stream_frac = 0.04;
        chase_frac = 0.01;
        local_region = kib 2;
        random_region = kib 96;
        stream_region = mib 2;
        chase_region = mib 8;
        stream_stride = 8;
        chase_chains = 0;
      };
  }

(* bzip2: regular compression loops — few I-misses, streaming data,
   predictable branches, mid ILP. *)
let bzip2 =
  let c = base "bzip2" 101 in
  {
    c with
    Config.control = { c.control with chaotic_frac = 0.012; pattern_frac = 0.10 };
    memory = { c.memory with local_frac = 0.78; random_frac = 0.12; stream_frac = 0.09; chase_frac = 0.01 };
  }

(* crafty: chess search — big code, lots of well-predicted branches,
   high ILP, tiny data working set. *)
let crafty =
  let c = base "crafty" 102 in
  {
    c with
    Config.mix = { c.mix with branch = 0.14; jump = 0.06 };
    deps = { c.deps with short_p = 0.7; short_mean = 2.5; nsrc_weights = [| 0.22; 0.48; 0.30 |] };
    control = { c.control with regions = 40; blocks_per_region = 28; chaotic_frac = 0.012; loop_trip_mean = 10.0 };
    memory = { c.memory with local_frac = 0.93; random_frac = 0.06; stream_frac = 0.008; chase_frac = 0.002 };
  }

(* eon: C++ ray tracer — large instruction footprint, very predictable
   control, almost no data misses. *)
let eon =
  let c = base "eon" 103 in
  {
    c with
    Config.mix = { c.mix with branch = 0.12; jump = 0.06; mul = 0.06 };
    deps = { c.deps with short_p = 0.75; short_mean = 2.5 };
    control = { c.control with regions = 44; blocks_per_region = 24; chaotic_frac = 0.006; loop_trip_mean = 8.0 };
    memory = { c.memory with local_frac = 0.95; random_frac = 0.045; stream_frac = 0.004; chase_frac = 0.001 };
  }

(* gap: group theory — high ILP even past mispredicted branches (the
   paper's outlier with 8 useful instructions left in the window),
   noticeable I-misses and clustered long d-misses. *)
let gap =
  let c = base "gap" 104 in
  {
    c with
    Config.mix = { c.mix with branch = 0.14; jump = 0.06 };
    deps = { Config.short_p = 0.65; short_mean = 3.0; long_max = 384; nsrc_weights = [| 0.28; 0.47; 0.25 |] };
    control = { c.control with regions = 36; blocks_per_region = 24; chaotic_frac = 0.006; loop_trip_mean = 14.0 };
    memory = { c.memory with local_frac = 0.83; random_frac = 0.10; stream_frac = 0.06; chase_frac = 0.01 };
  }

(* gcc: compiler — jumpy control flow with moderate everything; the
   paper's runs show negligible I-cache misses for the input used, so
   the footprint stays modest. *)
let gcc =
  let c = base "gcc" 105 in
  {
    c with
    Config.control = { c.control with regions = 6; blocks_per_region = 28; chaotic_frac = 0.03; loop_trip_mean = 12.0 };
    memory = { c.memory with local_frac = 0.86; random_frac = 0.11; stream_frac = 0.02; chase_frac = 0.01 };
  }

(* gzip: small hot loops (tiny code footprint), bursty hard-to-predict
   branches; paper: alpha 1.3, beta 0.5, mean latency 1.5. *)
let gzip =
  let c = base "gzip" 106 in
  {
    c with
    Config.mix = { c.mix with mul = 0.08 };
    control =
      { c.control with regions = 2; blocks_per_region = 16; chaotic_frac = 0.10;
        chaotic_low = 0.3; chaotic_high = 0.7; loop_trip_mean = 32.0 };
    memory = { c.memory with local_frac = 0.80; random_frac = 0.13; stream_frac = 0.06; chase_frac = 0.01 };
  }

(* mcf: pointer-chasing network simplex — long d-cache misses dominate
   (70% of CPI in the paper), low ILP. *)
let mcf =
  let c = base "mcf" 107 in
  {
    c with
    Config.mix = { c.mix with load = 0.30; store = 0.08 };
    deps = { c.deps with short_p = 0.85; short_mean = 2.5 };
    control = { c.control with regions = 2; blocks_per_region = 12; chaotic_frac = 0.03; loop_trip_mean = 40.0 };
    memory =
      { c.memory with local_frac = 0.62; random_frac = 0.12; stream_frac = 0.10;
        chase_frac = 0.16; chase_region = mib 16 };
  }

(* parser: dictionary lookups — moderate mispredictions, moderate
   short misses, mid ILP, noticeable I-misses. *)
let parser =
  let c = base "parser" 108 in
  {
    c with
    Config.mix = { c.mix with branch = 0.14; jump = 0.06 };
    control = { c.control with regions = 30; blocks_per_region = 24; chaotic_frac = 0.015; loop_trip_mean = 10.0 };
    memory = { c.memory with local_frac = 0.80; random_frac = 0.15; stream_frac = 0.03; chase_frac = 0.02 };
  }

(* perlbmk: interpreter dispatch — large code footprint, indirect-ish
   jumpy control, branchy. *)
let perlbmk =
  let c = base "perlbmk" 109 in
  {
    c with
    Config.mix = { c.mix with branch = 0.15; jump = 0.06 };
    control = { c.control with regions = 44; blocks_per_region = 26; chaotic_frac = 0.012; loop_trip_mean = 8.0 };
    memory = { c.memory with local_frac = 0.88; random_frac = 0.09; stream_frac = 0.02; chase_frac = 0.01 };
  }

(* twolf: place and route — long d-misses (60% of CPI) plus many
   mispredictions; low-mid ILP. *)
let twolf =
  let c = base "twolf" 110 in
  {
    c with
    Config.mix = { c.mix with load = 0.27; mul = 0.03; branch = 0.14; jump = 0.05 };
    deps = { c.deps with short_p = 0.85; short_mean = 2.5 };
    control =
      { c.control with regions = 24; blocks_per_region = 20; chaotic_frac = 0.045;
        chaotic_low = 0.3; chaotic_high = 0.7; loop_trip_mean = 8.0 };
    memory =
      { c.memory with local_frac = 0.70; random_frac = 0.14; stream_frac = 0.06;
        chase_frac = 0.10; chase_region = mib 12 };
  }

(* vortex: OO database — the paper's high-ILP extreme (beta 0.7) with a
   big instruction footprint and well-predicted branches. *)
let vortex =
  let c = base "vortex" 111 in
  {
    c with
    Config.mix = { c.mix with branch = 0.13; jump = 0.07 };
    deps =
      { Config.short_p = 0.70; short_mean = 2.2; long_max = 512; nsrc_weights = [| 0.25; 0.48; 0.27 |] };
    control = { c.control with regions = 52; blocks_per_region = 26; chaotic_frac = 0.002; loop_trip_mean = 24.0 };
    memory = { c.memory with local_frac = 0.88; random_frac = 0.10; stream_frac = 0.015; chase_frac = 0.005 };
  }

(* vpr: the paper's low-ILP extreme (beta 0.3) with high mean latency
   (2.2 cycles) and hard branches. *)
let vpr =
  let c = base "vpr" 112 in
  {
    c with
    Config.mix = { c.mix with load = 0.26; mul = 0.20; div = 0.025 };
    deps = { Config.short_p = 0.97; short_mean = 2.0; long_max = 64; nsrc_weights = [| 0.04; 0.46; 0.50 |] };
    control =
      { c.control with regions = 3; blocks_per_region = 20; chaotic_frac = 0.04;
        chaotic_low = 0.3; chaotic_high = 0.7; loop_trip_mean = 16.0 };
    memory =
      { c.memory with local_frac = 0.74; random_frac = 0.16; stream_frac = 0.05; chase_frac = 0.05 };
  }

let all = [ bzip2; crafty; eon; gap; gcc; gzip; mcf; parser; perlbmk; twolf; vortex; vpr ]
let names = List.map (fun (c : Config.t) -> c.Config.name) all

let find name =
  List.find (fun (c : Config.t) -> String.equal c.Config.name name) all

let with_seed seed (c : Config.t) = { c with Config.seed }
