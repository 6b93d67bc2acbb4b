package dag

// OracleMarshal hands the encoding/json oracle of encode_test.go to the
// external test package, which can import internal/workload where this
// package's own tests cannot.
var OracleMarshal = oracleMarshal
