module asymnvm/benchmark

go 1.22

require asymnvm v0.0.0

replace asymnvm => ../
