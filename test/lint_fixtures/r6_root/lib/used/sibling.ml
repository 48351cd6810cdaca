let total = Used.sibling_only + 1
