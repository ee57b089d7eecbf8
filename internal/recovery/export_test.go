package recovery

// ProbeInterval is the maintenance period, for the tests that measure one.
const ProbeInterval = probeInterval
