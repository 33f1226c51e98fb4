module Fu_set = Fom_isa.Fu_set
module Opclass = Fom_isa.Opclass

let saturation_ipc fu ~mix =
  List.fold_left
    (fun acc cls ->
      let weight = mix cls in
      let count = Fu_set.of_class fu cls in
      if weight <= 0.0 || count = max_int then acc
      else Float.min acc (float_of_int count /. weight))
    infinity Opclass.all

let effective_width fu ~mix ~width = Float.min (float_of_int width) (saturation_ipc fu ~mix)

let binding_class fu ~mix =
  let bound = saturation_ipc fu ~mix in
  if Float.is_finite bound then
    List.find_opt
      (fun cls ->
        let weight = mix cls in
        let count = Fu_set.of_class fu cls in
        weight > 0.0 && count < max_int
        && Float.abs ((float_of_int count /. weight) -. bound) < 1e-9)
      Opclass.all
  else None

