module W = Widget

let () =
  ignore (Widget.used 1 + W.aliased 2 + Widget.(opened 3) + Widget.Inner.counted)
