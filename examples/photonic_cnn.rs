//! A convolutional network running end-to-end on simulated photonic
//! hardware: conv filters in an MRR weight bank (im2col streaming), GST
//! activation per output position, electronic max-pooling, a photonic
//! dense head — trained in situ.
//!
//! ```sh
//! cargo run --release --example photonic_cnn [per_class] [epochs]
//! ```


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use trident::arch::conv_engine::PhotonicCnn;
use trident::nn::data::synthetic_digits;

fn main() {
    let mut args = std::env::args().skip(1);
    let per_class: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let epochs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);

    println!("Photonic CNN on the synthetic digit task");
    println!("(conv 6@3x3 -> GST activation -> 2x2 maxpool -> dense 10)\n");

    let data = synthetic_digits(per_class, 0.05, 13);
    let images: Vec<Vec<f64>> = (0..data.len())
        .map(|i| data.inputs.row(i).iter().map(|&v| v as f64).collect())
        .collect();

    let mut cnn = PhotonicCnn::new(1, 8, 8, 6, 3, 10, 5, 8);
    let (ch, cw) = cnn.conv_hw();
    let (ph, pw) = cnn.pool_hw();
    println!(
        "feature path: 1x8x8 -> conv {ch}x{cw}x6 -> pool {ph}x{pw}x6 -> {} features -> 10 classes",
        cnn.feature_count()
    );
    let initial = cnn.try_accuracy(&images, &data.labels).unwrap();
    println!("initial accuracy: {:.1}%\n", initial * 100.0);

    let history = cnn.try_train_batched(&images, &data.labels, 0.1, epochs, 1).unwrap();
    for (e, loss) in history.iter().enumerate() {
        if e % 2 == 0 || e + 1 == history.len() {
            println!("epoch {e:>3}: loss {loss:.4}");
        }
    }
    println!(
        "\nfinal accuracy: {:.1}%",
        cnn.try_accuracy(&images, &data.labels).unwrap() * 100.0
    );
    println!(
        "total optical energy: {:.2} uJ",
        cnn.total_energy().value() / 1e6
    );
    println!(
        "\nEvery MAC — conv patches, dense head, gradient outer products —\n\
         went through the simulated MRR weight banks; only pooling, loss\n\
         gradients and weight bookkeeping are electronic, as in the paper."
    );
}
