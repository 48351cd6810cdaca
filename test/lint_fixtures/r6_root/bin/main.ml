module U = Used

let () = ignore (U.through_alias + Sibling.total)
let () = ignore Used.(through_open)
let () = ignore U.Nested.used_nested
