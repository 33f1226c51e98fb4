module W = Widget

let () =
  ignore (Widget.used 1 + W.aliased 2 + Widget.(opened 3) + Widget.Inner.counted);
  ignore (Widget.tuned ~depth:3 ());
  ignore (Widget.level 4 : Widget.level);
  ignore (None : Widget.gauge option)
