type t = Alu | Mul | Div | Load | Store | Branch | Jump

let all = [ Alu; Mul; Div; Load; Store; Branch; Jump ]
let count = 7

let to_int = function
  | Alu -> 0
  | Mul -> 1
  | Div -> 2
  | Load -> 3
  | Store -> 4
  | Branch -> 5
  | Jump -> 6

let of_int = function
  | 0 -> Alu
  | 1 -> Mul
  | 2 -> Div
  | 3 -> Load
  | 4 -> Store
  | 5 -> Branch
  | 6 -> Jump
  | _ -> Fom_check.Checker.internal_error "operation-class tag out of range"
let is_memory = function Load | Store -> true | Alu | Mul | Div | Branch | Jump -> false
let is_control = function Branch | Jump -> true | Alu | Mul | Div | Load | Store -> false
let has_result = function Alu | Mul | Div | Load -> true | Store | Branch | Jump -> false

let to_string = function
  | Alu -> "alu"
  | Mul -> "mul"
  | Div -> "div"
  | Load -> "load"
  | Store -> "store"
  | Branch -> "branch"
  | Jump -> "jump"
