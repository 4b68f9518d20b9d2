"""Exception hierarchy shared by all analysis stages."""


class QFlowError(Exception):
    """Base class for all analysis errors."""


class VerilogSyntaxError(QFlowError):
    def __init__(self, path, line, col, message):
        super().__init__(f"{path}:{line}:{col}: {message}")
        self.path = path
        self.line = line
        self.col = col
        self.message = message


class UnsupportedConstruct(QFlowError):
    def __init__(self, construct, location=""):
        loc = f" at {location}" if location else ""
        super().__init__(f"unsupported construct: {construct}{loc}")
        self.construct = construct
        self.location = location


class UnknownSignal(QFlowError):
    def __init__(self, name):
        super().__init__(f"unknown signal: {name}")
        self.name = name


class LabelOnNonInput(QFlowError):
    def __init__(self, name):
        super().__init__(f"security label on non-input signal: {name}")
        self.name = name


class RecursiveInstantiation(QFlowError):
    def __init__(self, cycle):
        super().__init__(f"recursive module instantiation: {' -> '.join(cycle)}")
        self.cycle = cycle


class NonConstantGenerateBound(QFlowError):
    def __init__(self, location=""):
        super().__init__(f"generate bound is not a constant ({location})")
        self.location = location


class WidthMismatch(QFlowError):
    def __init__(self, location, detail=""):
        super().__init__(f"width mismatch at {location}: {detail}")
        self.location = location


class MultipleDrivers(QFlowError):
    def __init__(self, net, bit):
        super().__init__(f"multiple drivers for {net}[{bit}]")
        self.net = net
        self.bit = bit


class CombinationalLoop(QFlowError):
    def __init__(self, cycle):
        super().__init__(f"combinational loop through: {', '.join(str(c) for c in cycle)}")
        self.cycle = cycle


class UnassignedNet(QFlowError):
    def __init__(self, net, bit=None):
        where = net if bit is None else f"{net}[{bit}]"
        super().__init__(f"net is read but never assigned: {where}")
        self.net = net
        self.bit = bit


class ArityMismatch(QFlowError):
    def __init__(self, detail=""):
        super().__init__(f"channel arity mismatch: {detail}")


class NonConvergentFixpoint(QFlowError):
    def __init__(self, registers):
        super().__init__(
            "sequential fixpoint did not converge over registers: "
            + ", ".join(str(r) for r in registers)
        )
        self.registers = registers


class TooLarge(QFlowError):
    def __init__(self, bits, limit):
        super().__init__(f"exhaustive enumeration over {bits} bits exceeds limit {limit}")
        self.bits = bits
        self.limit = limit


class DesignTooDeep(QFlowError):
    """A design nested deeper than the recursive tree walkers can follow."""

    def __init__(self):
        super().__init__("design is nested too deeply to analyse "
                         "(Python's recursion limit was reached)")
