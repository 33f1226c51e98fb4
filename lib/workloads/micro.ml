module Config = Fom_trace.Config

let kib n = n * 1024
let mib n = n * 1024 * 1024

(* A neutral scaffold the stress presets specialize: ALU-only mix with
   sparse, predictable control and all-local memory. *)
let scaffold name seed =
  {
    Config.name;
    seed;
    mix =
      { Config.load = 0.0; store = 0.0; branch = 0.09; jump = 0.01; mul = 0.0; div = 0.0 };
    deps =
      { Config.short_p = 0.8; short_mean = 3.0; long_max = 128; nsrc_weights = [| 1.0; 0.0; 0.0 |] };
    control =
      {
        Config.regions = 2;
        blocks_per_region = 8;
        chaotic_frac = 0.0;
        chaotic_low = 0.3;
        chaotic_high = 0.7;
        pattern_frac = 0.0;
        pattern_max_period = 8;
        loop_trip_mean = 16.0;
        bias = 0.0;
      };
    memory =
      {
        Config.local_frac = 1.0;
        random_frac = 0.0;
        stream_frac = 0.0;
        chase_frac = 0.0;
        local_region = kib 2;
        random_region = kib 64;
        stream_region = mib 2;
        chase_region = mib 8;
        stream_stride = 8;
        chase_chains = 0;
      };
  }

let serial_chain =
  let c = scaffold "serial-chain" 201 in
  {
    c with
    Config.deps =
      { Config.short_p = 1.0; short_mean = 1.0; long_max = 1; nsrc_weights = [| 0.0; 1.0; 0.0 |] };
  }

let independent = scaffold "independent" 202

let pointer_chase =
  let c = scaffold "pointer-chase" 203 in
  {
    c with
    Config.mix = { c.Config.mix with Config.load = 0.25 };
    memory =
      {
        c.Config.memory with
        Config.local_frac = 0.0;
        chase_frac = 1.0;
        chase_region = mib 16;
        chase_chains = 1;
      };
  }

let streaming =
  let c = scaffold "streaming" 204 in
  {
    c with
    Config.mix = { c.Config.mix with Config.load = 0.25; store = 0.05 };
    memory = { c.Config.memory with Config.local_frac = 0.0; stream_frac = 1.0 };
  }

let branchy =
  let c = scaffold "branchy" 205 in
  {
    c with
    Config.mix = { c.Config.mix with Config.branch = 0.24; jump = 0.01 };
    control =
      { c.Config.control with Config.chaotic_frac = 0.5; chaotic_low = 0.4; chaotic_high = 0.6 };
  }

let loopy =
  let c = scaffold "loopy" 206 in
  { c with Config.control = { c.Config.control with Config.loop_trip_mean = 64.0 } }

let all = [ serial_chain; independent; pointer_chase; streaming; branchy; loopy ]
