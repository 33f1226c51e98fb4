module W = Widget

let () =
  ignore (Widget.used 1 + W.aliased 2 + Widget.(opened 3) + Widget.Inner.counted);
  ignore (Widget.tuned ~depth:3 ());
  let twirl ~turns = turns in
  ignore (twirl ~turns:2 + Widget.spun ());
  let pick ~inner = inner in
  ignore (Widget.nested (pick ~inner:3));
  ignore (W.scaled ~factor:2 1);
  ignore (Widget.level 4 : Widget.level);
  ignore (None : Widget.gauge option)
