"""Tour of the autodiff engine: forward graphs, backprop, stop-gradient.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from prepromo import autodiff as ad


def main():
    print("= gradients of a tiny expression =")
    w = ad.Parameter("w", 2.0)
    x = ad.constant(3.0)
    loss = ad.mul(w.node(), x)                      # loss = w * x
    grads = ad.backward(loss, [w])
    print(f"d(w*x)/dw at w=2, x=3 -> {grads['w']}")

    print("\n= stop-gradient freezes the wrapped branch =")
    w = ad.Parameter("w", 2.0)
    wn = w.node()
    f = ad.mul(wn, ad.stop_gradient(wn))            # f = w * [[w]]
    grads = ad.backward(f, [w])
    print(f"d(w*[[w]])/dw at w=2 -> {grads['w']}  (not 4: the boxed copy is a constant)")

    print("\n= a network, trained for a few steps =")
    rng = np.random.default_rng(0)
    net = ad.MLP("net", [4, 8, 1], ["tanh", "linear"], rng, zero_last=True)
    data = rng.normal(size=(256, 4))
    labels = (data[:, 0] * data[:, 1] > 0).astype(float).reshape(-1, 1)
    opt = ad.Adagrad(net.parameters(), lr=0.2)
    for step in range(200):
        p = ad.sigmoid(net.forward(ad.constant(data))[-1])
        loss = ad.bce(p, labels)
        opt.step(loss)                              # backward and update in one sweep
        if step % 50 == 0:
            print(f"step {step:3d}  bce {float(loss.data):.4f}")

    print("\n= gradient check against central finite differences =")
    params = net.parameters()

    def loss_value():
        p = ad.sigmoid(net.forward(ad.constant(data[:16]))[-1])
        return ad.bce(p, labels[:16])

    analytic = ad.backward(loss_value(), params)
    worst = 0.0
    for p in params:
        fd = np.zeros_like(p.data)
        flat, fdflat = p.data.reshape(-1), fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1e-5
            up = float(loss_value().data)
            flat[i] = orig - 1e-5
            down = float(loss_value().data)
            flat[i] = orig
            fdflat[i] = (up - down) / 2e-5
        err = np.max(np.abs(analytic[p.name] - fd)
                     / np.maximum(np.abs(fd), 1e-4))
        worst = max(worst, float(err))
    print(f"worst relative error over {sum(p.data.size for p in params)} "
          f"parameters: {worst:.2e}")


if __name__ == "__main__":
    main()
